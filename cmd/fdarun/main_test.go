package main

import (
	"bufio"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

// TestLocalMatchesCoordinator builds fdarun and runs one small spec
// twice from the same flags: in-process, and as -coordinator with two
// -worker processes on loopback TCP. Both modes build from one
// dist.JobSpec, so the printed Result lines — the coordinator's and each
// worker's — must equal the local one.
func TestLocalMatchesCoordinator(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs the fdarun binary")
	}
	if _, err := exec.LookPath("go"); err != nil {
		t.Skip("go toolchain not on PATH")
	}
	bin := filepath.Join(t.TempDir(), "fdarun")
	if out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	spec := []string{"-model", "lenet5s", "-strategy", "LinearFDA", "-k", "2", "-batch", "16", "-steps", "30", "-seed", "3", "-jobs", "1"}

	out, err := exec.Command(bin, spec...).Output()
	if err != nil {
		t.Fatalf("local run: %v", err)
	}
	local, _, _ := strings.Cut(string(out), "\n")
	if !strings.HasPrefix(local, "LinearFDA: steps=30 ") {
		t.Fatalf("unexpected local result line %q", local)
	}

	coord := exec.Command(bin, append(spec, "-coordinator", "127.0.0.1:0")...)
	stdout, err := coord.StdoutPipe()
	if err != nil {
		t.Fatal(err)
	}
	if err := coord.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { coord.Process.Kill() })
	lines := bufio.NewScanner(stdout)
	if !lines.Scan() {
		t.Fatal("coordinator printed nothing")
	}
	// "coordinating 2 workers on <addr> (start them with: ...)"
	fields := strings.Fields(lines.Text())
	if len(fields) < 5 || fields[0] != "coordinating" {
		t.Fatalf("unexpected coordinator banner %q", lines.Text())
	}
	addr := fields[4]

	workers := make([]*exec.Cmd, 2)
	outs := make([]*strings.Builder, 2)
	for i := range workers {
		outs[i] = &strings.Builder{}
		workers[i] = exec.Command(bin, "-worker", "-connect", addr, "-jobs", "1")
		workers[i].Stdout = outs[i]
		if err := workers[i].Start(); err != nil {
			t.Fatal(err)
		}
		w := workers[i]
		t.Cleanup(func() { w.Process.Kill() })
	}
	type ended struct {
		result string
		err    error
	}
	done := make(chan ended, 1)
	go func() {
		var e ended
		if lines.Scan() {
			e.result = lines.Text()
		}
		for lines.Scan() {
		}
		e.err = coord.Wait()
		done <- e
	}()
	select {
	case e := <-done:
		if e.err != nil {
			t.Fatalf("coordinator: %v", e.err)
		}
		if e.result != local {
			t.Errorf("coordinator result %q, local %q", e.result, local)
		}
	case <-time.After(2 * time.Minute):
		t.Fatal("coordinator did not finish")
	}
	for i, w := range workers {
		if err := w.Wait(); err != nil {
			t.Fatalf("worker %d: %v", i, err)
		}
		// "worker rank <r> finished:\n<result>\n"
		_, res, _ := strings.Cut(outs[i].String(), "\n")
		if res = strings.TrimSuffix(res, "\n"); res != local {
			t.Errorf("worker %d result %q, local %q", i, res, local)
		}
	}
}
