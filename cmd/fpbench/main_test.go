package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// captureStdout runs fn with os.Stdout redirected into a pipe and returns
// what it printed. The experiments print straight to os.Stdout, so the CLI
// tests have to swap the real file descriptor rather than inject a writer.
func captureStdout(t *testing.T, fn func()) string {
	t.Helper()
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	old := os.Stdout
	os.Stdout = w
	done := make(chan string)
	go func() {
		// Pre-sized so the reader never allocates while fn runs: the
		// bench's allocs/move figure counts every allocation in the
		// process, and a late-scheduled reader growing its buffer inside
		// the pricing window would show up there.
		var sb strings.Builder
		sb.Grow(1 << 16)
		buf := make([]byte, 4096)
		for {
			n, err := r.Read(buf)
			sb.Write(buf[:n])
			if err != nil {
				break
			}
		}
		done <- sb.String()
	}()
	defer func() {
		os.Stdout = old
	}()
	fn()
	w.Close()
	os.Stdout = old
	return <-done
}

func TestNoArgsPrintsUsage(t *testing.T) {
	if got := realMain(nil); got != 2 {
		t.Errorf("realMain() = %d, want 2 (usage)", got)
	}
}

func TestBadFlagRejected(t *testing.T) {
	if got := realMain([]string{"-no-such-flag"}); got != 2 {
		t.Errorf("realMain(-no-such-flag) = %d, want 2", got)
	}
	if got := realMain([]string{"-table", "pancake"}); got != 2 {
		t.Errorf("realMain(-table pancake) = %d, want 2", got)
	}
}

func TestTable1(t *testing.T) {
	var code int
	out := captureStdout(t, func() { code = realMain([]string{"-table", "1"}) })
	if code != 0 {
		t.Fatalf("realMain(-table 1) = %d, want 0", code)
	}
	if !strings.Contains(out, "Table 1") {
		t.Errorf("output missing Table 1 header:\n%s", out)
	}
	if !strings.Contains(out, "circuit") {
		t.Errorf("output missing circuit rows:\n%s", out)
	}
}

func TestFig13(t *testing.T) {
	var code int
	out := captureStdout(t, func() { code = realMain([]string{"-fig", "13"}) })
	if code != 0 {
		t.Fatalf("realMain(-fig 13) = %d, want 0", code)
	}
	if !strings.Contains(out, "Fig 13") {
		t.Errorf("output missing Fig 13 header:\n%s", out)
	}
}

func TestCompareFlag(t *testing.T) {
	if testing.Short() {
		t.Skip("-compare runs twenty annealers; skipped with -short")
	}
	var code int
	out := captureStdout(t, func() { code = realMain([]string{"-compare"}) })
	if code != 0 {
		t.Fatalf("realMain(-compare) = %d, want 0", code)
	}
	for _, want := range []string{"MCMF", "warm start", "avg cost delta"} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}
}

func TestWorkersFlagAccepted(t *testing.T) {
	// Any worker count must parse and produce the same tables; the cheap
	// Table 1 path proves the flag plumbs through without crashing.
	for _, w := range []string{"1", "3"} {
		if got := realMain([]string{"-workers", w, "-table", "1"}); got != 0 {
			t.Errorf("realMain(-workers %s -table 1) = %d, want 0", w, got)
		}
	}
}

func TestCPUAndMemProfiles(t *testing.T) {
	dir := t.TempDir()
	cpu := filepath.Join(dir, "cpu.out")
	mem := filepath.Join(dir, "mem.out")
	if got := realMain([]string{"-table", "1", "-cpuprofile", cpu, "-memprofile", mem}); got != 0 {
		t.Fatalf("realMain with profiles = %d, want 0", got)
	}
	for _, p := range []string{cpu, mem} {
		st, err := os.Stat(p)
		if err != nil {
			t.Errorf("profile not written: %v", err)
			continue
		}
		if st.Size() == 0 {
			t.Errorf("profile %s is empty", p)
		}
	}
}

func TestCPUProfileUnwritable(t *testing.T) {
	bad := filepath.Join(t.TempDir(), "no-such-dir", "cpu.out")
	if got := realMain([]string{"-table", "1", "-cpuprofile", bad}); got != 1 {
		t.Errorf("realMain with unwritable -cpuprofile = %d, want 1", got)
	}
}

func TestFig15WritesSVGs(t *testing.T) {
	dir := t.TempDir()
	var code int
	out := captureStdout(t, func() { code = realMain([]string{"-fig", "15", "-out", dir}) })
	if code != 0 {
		t.Fatalf("realMain(-fig 15) = %d, want 0", code)
	}
	for _, name := range []string{"random", "ifa", "dfa"} {
		p := filepath.Join(dir, "fig15_"+name+".svg")
		if _, err := os.Stat(p); err != nil {
			t.Errorf("missing SVG: %v", err)
		}
	}
	if !strings.Contains(out, "Fig 15") {
		t.Errorf("output missing Fig 15 header:\n%s", out)
	}
}

func TestFig15UnwritableOut(t *testing.T) {
	bad := filepath.Join(t.TempDir(), "no-such-dir")
	if got := realMain([]string{"-fig", "15", "-out", bad}); got != 1 {
		t.Errorf("realMain(-fig 15 -out <unwritable>) = %d, want 1", got)
	}
}
