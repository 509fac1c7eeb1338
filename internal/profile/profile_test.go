package profile

import (
	"flag"
	"os"
	"path/filepath"
	"runtime/pprof"
	"testing"
)

func flags(t *testing.T, args ...string) *Flags {
	t.Helper()
	fs := flag.NewFlagSet("cmd", flag.ContinueOnError)
	f := Register(fs)
	if err := fs.Parse(args); err != nil {
		t.Fatal(err)
	}
	return f
}

// TestStartWritesEachFile: every flag that is set leaves its file, written
// by the time stop returns.
func TestStartWritesEachFile(t *testing.T) {
	dir := t.TempDir()
	paths := []string{filepath.Join(dir, "cpu"), filepath.Join(dir, "mem"), filepath.Join(dir, "trace")}
	stop, err := flags(t, "-cpuprofile", paths[0], "-memprofile", paths[1], "-trace", paths[2]).Start("cmd")
	if err != nil {
		t.Fatal(err)
	}
	stop()
	for _, p := range paths {
		if st, err := os.Stat(p); err != nil || st.Size() == 0 {
			t.Errorf("%s: %v, %v", filepath.Base(p), st, err)
		}
	}
	stop, err = flags(t).Start("cmd")
	if err != nil {
		t.Fatal(err)
	}
	stop()
}

// TestStartFailureLeavesNothingRunning: a trace file that cannot be made
// fails Start and stops the CPU profile it had begun.
func TestStartFailureLeavesNothingRunning(t *testing.T) {
	dir := t.TempDir()
	_, err := flags(t, "-cpuprofile", filepath.Join(dir, "cpu"), "-trace", filepath.Join(dir, "no", "trace")).Start("cmd")
	if err == nil {
		t.Fatal("Start made a trace file in a missing directory")
	}
	f, err := os.Create(filepath.Join(dir, "again"))
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if err := pprof.StartCPUProfile(f); err != nil {
		t.Fatalf("the CPU profile is still running: %v", err)
	}
	pprof.StopCPUProfile()
}
