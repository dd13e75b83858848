package main

import (
	"bytes"
	"os"
	"regexp"
	"strings"
	"testing"
	"time"
)

// toySizes runs every workload in well under a second.
var toySizes = sizes{
	warm0b: 20, warm256k: 2, warmHalo: 10, warmRing: 10,
	trial256k: 10, rssLap0b: 50, rssIter: 30, window0b: 10, window256: 5, seg0b: 50,
	haloBlock: 1 << 10, ckptEvery: 20, state: 64 << 10,
	ringBlock: 1 << 10, ringCkptLap: 20, ringReplay: 60, ringJitter: 10, ringTail: 20,
}

func toyEnv(t *testing.T, budget time.Duration) *runEnv {
	return &runEnv{seed: 7, budget: budget, deadline: time.Now().Add(30 * time.Second), dir: t.TempDir(), sz: toySizes}
}

func TestWorkloadsAtToyScale(t *testing.T) {
	for _, w := range workloads {
		res, err := runWorkload(w.Name, toyEnv(t, 150*time.Millisecond))
		if err != nil {
			t.Fatal(err)
		}
		if res.failed != 0 || res.ops == 0 || len(res.laps) == 0 || len(res.stalls) == 0 || len(res.setups) == 0 {
			t.Errorf("%s: ops %d, failed %d, laps %d, stall windows %d, setups %d: %v",
				w.Name, res.ops, res.failed, len(res.laps), len(res.stalls), len(res.setups), res.problems)
		}
		// A respawned rank's connections rightly replace its predecessor's.
		if res.tcp.StaleReplaced != 0 && w.Name != "ring_recover" {
			t.Errorf("%s: %d connections replaced as stale in a fault-free run", w.Name, res.tcp.StaleReplaced)
		}
		switch w.Name {
		case "halo_ckpt":
			if res.ds.Checkpoints == 0 || res.csSavedBytes == 0 {
				t.Errorf("halo_ckpt took no checkpoint: %+v", res.ds)
			}
		case "ring_recover":
			if res.ds.Replayed == 0 {
				t.Errorf("ring_recover replayed nothing")
			}
		default:
			if res.ds.Replayed != 0 || res.csSavedBytes != 0 {
				t.Errorf("%s replayed %d messages and saved %d checkpoint bytes; it should do neither", w.Name, res.ds.Replayed, res.csSavedBytes)
			}
		}
	}
}

// A damaged payload must show up as failed operations on every
// workload: the output checks really check.
func TestDamageIsCaught(t *testing.T) {
	for _, w := range workloads {
		env := toyEnv(t, 50*time.Millisecond)
		env.corrupt = true
		res, err := runWorkload(w.Name, env)
		if err != nil {
			t.Fatal(err)
		}
		if res.failed == 0 {
			t.Errorf("%s: one flipped byte and no failed operation", w.Name)
		}
	}
}

func TestLadderAtToyScale(t *testing.T) {
	m := metrics{}
	failed, problems := runLadder(toyEnv(t, 0), 20*time.Millisecond, m)
	if failed != 0 {
		t.Fatalf("ladder: %d failed: %v", failed, problems)
	}
	for _, r := range ladder {
		if m[r.metric] <= 0 {
			t.Errorf("rung %s measured nothing", r.metric)
		}
	}
}

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

func TestNamesAndManifest(t *testing.T) {
	seen := map[string]bool{}
	check := func(name, unit string) {
		if !nameRE.MatchString(name) || seen[name] {
			t.Errorf("metric or workload name %q is malformed or used twice", name)
		}
		if unit != "" && !unitRE.MatchString(unit) {
			t.Errorf("%s: unit %q is malformed", name, unit)
		}
		seen[name] = true
	}
	for _, w := range workloads {
		check(w.Name, "")
		if len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("%s: why is %d characters or more than a line", w.Name, len(w.Why))
		}
	}
	hasSetup := false
	for _, s := range endToEnd {
		check(s.Name, s.Unit)
		if s.Bound <= 0 || s.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", s.Name, s.Bound)
		}
		hasSetup = hasSetup || (s.Name == "setup_s" && s.Unit == "s" && s.Better == "lower")
	}
	if !hasSetup {
		t.Error("no setup_s metric in seconds, lower is better")
	}
	for _, s := range perLayer {
		check(s.Name, s.Unit)
	}
	if len(perLayer) > 128 || len(endToEnd) > 16 {
		t.Errorf("%d per-layer and %d end-to-end metrics exceed the contract", len(perLayer), len(endToEnd))
	}
	committed, err := os.ReadFile("../../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(committed, manifestJSON()) {
		t.Error("BENCHMARK.json differs from what the binary emits; regenerate it with -manifest")
	}
}

// Each mode must emit exactly the metrics BENCHMARK.json lists for it,
// all finite, and the end-to-end ones never zero.
func TestRunsEmitTheManifest(t *testing.T) {
	for _, w := range workloads {
		env := toyEnv(t, 120*time.Millisecond)
		m, res, err := endToEndRun(w.Name, env)
		if err != nil || res.failed != 0 {
			t.Fatalf("%s: %v, %v", w.Name, err, res.problems)
		}
		if len(m) != len(endToEnd) {
			t.Errorf("%s: %d end-to-end metrics emitted, %d listed", w.Name, len(m), len(endToEnd))
		}
		for _, s := range endToEnd {
			if v, ok := m[s.Name]; !ok || v <= 0 {
				t.Errorf("%s: %s = %v", w.Name, s.Name, v)
			}
		}
	}
	env := toyEnv(t, 400*time.Millisecond)
	trace := t.TempDir() + "/trace.json"
	m, res, err := tracedRun("halo_ckpt", env, trace)
	if err != nil || res.failed != 0 {
		t.Fatalf("traced halo_ckpt: %v, %v", err, res.problems)
	}
	if len(m) != len(perLayer) {
		t.Errorf("%d per-layer metrics emitted, %d listed", len(m), len(perLayer))
	}
	for _, s := range perLayer {
		if _, ok := m[s.Name]; !ok {
			t.Errorf("per-layer metric %s not emitted", s.Name)
		}
	}
	// The parts the trace attributes sum to the traced lap by
	// construction; the flight and logger shares must be real.
	if m["harness.traced_flight_us"] <= 0 || m["harness.traced_ack_wait_us"] <= 0 || m["harness.traced_residual_us"] <= 0 {
		t.Errorf("trace attributed flight %v, ack wait %v, residual %v us of a %v us lap", m["harness.traced_flight_us"],
			m["harness.traced_ack_wait_us"], m["harness.traced_residual_us"], m["harness.traced_lap_us"])
	}
	if st, err := os.Stat(trace); err != nil || st.Size() < 100 {
		t.Errorf("trace file: %v", err)
	}
}
