package deploy

import (
	"bytes"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"
)

// buildVrun compiles cmd/vrun into a temp dir once per test run.
func buildVrun(t *testing.T) string {
	t.Helper()
	exe := filepath.Join(t.TempDir(), "vrun")
	cmd := exec.Command("go", "build", "-o", exe, "mpichv/cmd/vrun")
	cmd.Dir = repoRoot(t)
	if out, err := cmd.CombinedOutput(); err != nil {
		t.Fatalf("building vrun: %v\n%s", err, out)
	}
	return exe
}

func repoRoot(t *testing.T) string {
	t.Helper()
	dir, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "go.mod")); err == nil {
			return dir
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			t.Fatal("go.mod not found above test directory")
		}
		dir = parent
	}
}

func writeProgram(t *testing.T, withCkpt bool, cns int) string {
	t.Helper()
	n := 1 + cns
	if withCkpt {
		n += 2
	}
	addrs := freeAddrs(t, n)
	var b strings.Builder
	i := 0
	fmt.Fprintf(&b, "el %s\n", addrs[i])
	i++
	if withCkpt {
		fmt.Fprintf(&b, "cs %s\n", addrs[i])
		i++
		fmt.Fprintf(&b, "sc %s\n", addrs[i])
		i++
	}
	for ; i < n; i++ {
		fmt.Fprintf(&b, "cn %s\n", addrs[i])
	}
	path := filepath.Join(t.TempDir(), "program.txt")
	if err := os.WriteFile(path, []byte(b.String()), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// TestVrunEndToEnd launches a complete system as OS processes and runs
// the token ring to completion.
func TestVrunEndToEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns processes; skipped in short mode")
	}
	exe := buildVrun(t)
	pg := writeProgram(t, false, 3)
	var out bytes.Buffer
	cmd := exec.Command(exe, "-pg", pg, "-app", "tokenring")
	cmd.Stdout = &out
	cmd.Stderr = &out
	if err := cmd.Run(); err != nil {
		t.Fatalf("vrun failed: %v\n%s", err, out.String())
	}
	if !strings.Contains(out.String(), "all ranks finalized") {
		t.Errorf("missing completion line:\n%s", out.String())
	}
}

// TestVrunSurvivesKill9 kills a live worker with SIGKILL mid-run; the
// supervisor must re-launch it as the rank's next incarnation with the
// recovery flag, and the run must still complete and verify.
func TestVrunSurvivesKill9(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns processes; skipped in short mode")
	}
	exe := buildVrun(t)
	pg := writeProgram(t, false, 3)
	var out syncBuffer
	cmd := exec.Command(exe, "-pg", pg, "-app", "tokenring")
	cmd.Stdout = &out
	cmd.Stderr = &out
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- cmd.Wait() }()

	t.Cleanup(func() {
		if cmd.Process != nil {
			cmd.Process.Kill()
		}
	})

	// Find the worker serving rank 1 and SIGKILL it early in the run
	// (the ring holds the token 50 ms per hop, so the run lasts about
	// a second).
	var victim int
	for i := 0; i < 40 && victim == 0; i++ {
		time.Sleep(25 * time.Millisecond)
		victim, _ = findWorker(t, pg, 1)
	}
	if victim == 0 {
		t.Fatalf("no rank-1 worker found\n%s", out.String())
	}
	time.Sleep(300 * time.Millisecond) // let the ring make some progress
	if err := syscall.Kill(victim, syscall.SIGKILL); err != nil {
		t.Fatalf("kill: %v", err)
	}

	// The respawn serves until the run is over, so it can be read while
	// the ring replays through it.
	respawn, inc := 0, ""
	for i := 0; i < 400 && (respawn == 0 || respawn == victim); i++ {
		time.Sleep(5 * time.Millisecond)
		respawn, inc = findWorker(t, pg, 1)
	}
	if respawn == 0 || respawn == victim {
		t.Errorf("no respawned rank-1 worker found\n%s", out.String())
	} else if inc != "1" {
		t.Errorf("respawned rank 1 runs as incarnation %q, want 1", inc)
	}

	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("vrun failed after kill: %v\n%s", err, out.String())
		}
	case <-time.After(120 * time.Second):
		cmd.Process.Kill()
		t.Fatalf("vrun did not finish after kill\n%s", out.String())
	}
	s := out.String()
	if !strings.Contains(s, "spawned cn 1 (pid "+fmt.Sprint(respawn)+", incarnation 1, restarted=true)") {
		t.Errorf("supervisor never logged the recovering respawn:\n%s", s)
	}
	if !strings.Contains(s, "all ranks finalized") {
		t.Errorf("run did not complete:\n%s", s)
	}
}

// syncBuffer is a bytes.Buffer safe to read while a child process
// writes to it.
type syncBuffer struct {
	mu sync.Mutex
	b  bytes.Buffer
}

func (b *syncBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.b.Write(p)
}

func (b *syncBuffer) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.b.String()
}

// findWorker scans /proc for a worker serving the given rank of the
// program file — a process whose environment names both — and returns
// its pid and MPICHV_INC.
func findWorker(t *testing.T, pgPath string, rank int) (pid int, inc string) {
	t.Helper()
	entries, err := os.ReadDir("/proc")
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if _, err := fmt.Sscanf(e.Name(), "%d", &pid); err != nil || pid <= 0 {
			continue
		}
		raw, err := os.ReadFile(filepath.Join("/proc", e.Name(), "environ"))
		if err != nil {
			continue
		}
		env := map[string]string{}
		for _, kv := range strings.Split(string(raw), "\x00") {
			if k, v, ok := strings.Cut(kv, "="); ok {
				env[k] = v
			}
		}
		if env["MPICHV_SERVE"] == fmt.Sprint(rank) && env["MPICHV_PG"] == pgPath {
			return pid, env["MPICHV_INC"]
		}
	}
	return 0, ""
}
