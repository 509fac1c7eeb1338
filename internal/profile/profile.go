// Package profile gives every command the same three profiling flags:
// -cpuprofile, -memprofile and -trace. Each writes a file for `go tool
// pprof` or `go tool trace`, so a slow or hungry run can be read from a
// production-shaped workload without editing code. Parse adds them to a
// command's flag set and parses it, so every command treats -h and a bad
// flag alike.
package profile

import (
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/pprof"
	"runtime/trace"
)

// Parse defines the profiling flags on fs, a command's own flag set, parses
// args into it and starts the profiles the flags ask for. Usage and errors
// go to stderr, after fs.Name(). It returns stop, which ends the profiles
// and writes the heap profile on the command's way out; or, when the
// command must not go on, a nil stop and the exit code: 0 after -h, 2 after
// a bad flag or a profile that cannot start. On error nothing is left
// running.
func Parse(fs *flag.FlagSet, args []string, stderr io.Writer) (stop func(), code int) {
	fs.SetOutput(stderr)
	cpu := fs.String("cpuprofile", "", "write a CPU profile to this file")
	mem := fs.String("memprofile", "", "write a heap profile to this file on exit")
	tr := fs.String("trace", "", "write an execution trace to this file")
	if err := fs.Parse(args); err == flag.ErrHelp {
		return nil, 0
	} else if err != nil {
		return nil, 2
	}
	report := func(err error) { fmt.Fprintf(stderr, "%s: %v\n", fs.Name(), err) }
	stop, err := start(*cpu, *mem, *tr, report)
	if err != nil {
		report(err)
		return nil, 2
	}
	return stop, 0
}

// start begins the CPU profile and the execution trace at the paths that
// are set; stop ends them and writes the heap profile, handing report what
// fails. On error nothing is left running.
func start(cpu, mem, tr string, report func(error)) (stop func(), err error) {
	var stops []func()
	stop = func() {
		for i := len(stops) - 1; i >= 0; i-- {
			stops[i]()
		}
	}
	if cpu != "" {
		file, err := os.Create(cpu)
		if err != nil {
			return nil, err
		}
		if err := pprof.StartCPUProfile(file); err != nil {
			file.Close()
			return nil, err
		}
		stops = append(stops, func() {
			pprof.StopCPUProfile()
			file.Close()
		})
	}
	if tr != "" {
		file, err := os.Create(tr)
		if err == nil {
			if err = trace.Start(file); err != nil {
				file.Close()
			}
		}
		if err != nil {
			stop()
			return nil, err
		}
		stops = append(stops, func() {
			trace.Stop()
			file.Close()
		})
	}
	if mem != "" {
		stops = append(stops, func() {
			if err := writeHeap(mem); err != nil {
				report(err)
			}
		})
	}
	return stop, nil
}

// writeHeap writes a heap profile of what is live after a collection.
func writeHeap(path string) error {
	file, err := os.Create(path)
	if err != nil {
		return err
	}
	defer file.Close()
	runtime.GC() // settle allocations so the heap profile is sharp
	return pprof.WriteHeapProfile(file)
}
