// Package profile gives every command the same three profiling flags:
// -cpuprofile, -memprofile and -trace. Each writes a file for `go tool
// pprof` or `go tool trace`, so a slow or hungry run can be read from a
// production-shaped workload without editing code.
package profile

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"runtime/trace"
)

// Flags are the profiling flags one command registered.
type Flags struct {
	cpu, mem, trace *string
}

// Register defines the flags on fs, flag.CommandLine for a command.
func Register(fs *flag.FlagSet) *Flags {
	return &Flags{
		cpu:   fs.String("cpuprofile", "", "write a CPU profile to this file"),
		mem:   fs.String("memprofile", "", "write a heap profile to this file on exit"),
		trace: fs.String("trace", "", "write an execution trace to this file"),
	}
}

// Start begins the CPU profile and the execution trace the flags ask for.
// stop ends them and writes the heap profile; a command calls it on its way
// out, and it reports what fails to stderr after prog. On error nothing is
// left running.
func (f *Flags) Start(prog string) (stop func(), err error) {
	var stops []func()
	stop = func() {
		for i := len(stops) - 1; i >= 0; i-- {
			stops[i]()
		}
	}
	if *f.cpu != "" {
		file, err := os.Create(*f.cpu)
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
	if *f.trace != "" {
		file, err := os.Create(*f.trace)
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
	if *f.mem != "" {
		path := *f.mem
		stops = append(stops, func() {
			if err := writeHeap(path); err != nil {
				fmt.Fprintf(os.Stderr, "%s: %v\n", prog, err)
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
