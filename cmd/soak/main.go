// Command soak runs the long-running real-socket chaos harness: a full
// MPICH-V2 deployment as OS processes over loopback TCP, every
// computing node (and, with -proxysvc, every service) fronted by a
// fault-injecting proxy, with a seeded schedule of process kills and
// freezes aimed at a configurable role kill-set. After each phase it
// re-fetches a read quorum of the event-logger replicas' determinant
// stores and the crash-surviving trace snapshots and audits them (no
// orphans, happens-before invariants), then writes the rolling-seed
// goodput/loss/recovery series to BENCH_soak.json.
//
// Usage:
//
//	soak -seed 42 -cns 3 -els 3 -roles cn,el,cs,sc -phases 2 -kills 4
//
// The same seed reproduces the same per-phase kill schedules and chaos
// variates. -regress <baseline.json> additionally gates the run on the
// committed goodput: a drop of more than -regress-tol (default 20%)
// fails the run. Exit status 1 means an audit failed, the run timed
// out, or the goodput regressed.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"mpichv/internal/apps"
	"mpichv/internal/deploy"
	"mpichv/internal/transport"
)

func parseRoles(s string) ([]deploy.Role, error) {
	var roles []deploy.Role
	for _, part := range strings.Split(s, ",") {
		switch r := deploy.Role(strings.TrimSpace(part)); r {
		case deploy.RoleCN, deploy.RoleEL, deploy.RoleCS, deploy.RoleSched:
			roles = append(roles, r)
		case "":
		default:
			return nil, fmt.Errorf("unknown role %q (want cn, el, cs or sc)", part)
		}
	}
	return roles, nil
}

func main() {
	// This binary doubles as its own worker executable: when the
	// supervisor re-execs it with MPICHV_SERVE set, MaybeServe takes
	// over and never returns.
	deploy.MaybeServe(func(name string) (deploy.App, bool) {
		a, ok := apps.Get(name)
		return deploy.App(a), ok
	})

	var (
		seed     = flag.Uint64("seed", 42, "base seed for the fault plans, chaos variates and disk faults")
		cns      = flag.Int("cns", 3, "computing nodes")
		els      = flag.Int("els", 1, "event-logger replicas (write quorum = majority)")
		css      = flag.Int("css", 1, "checkpoint-server replicas")
		laps     = flag.Int("laps", 60, "soak ring laps per rank (per phase)")
		holdMS   = flag.Int("hold", 25, "per-rank token hold (ms)")
		payload  = flag.Int("payload", 256, "token payload bytes")
		kills    = flag.Int("kills", 2, "process SIGKILLs to inject per phase")
		stalls   = flag.Int("stalls", 0, "process SIGSTOP freezes to inject per phase")
		rolesStr = flag.String("roles", "cn", "comma-separated kill-set (cn,el,cs,sc); kills round-robin across it")
		phases   = flag.Int("phases", 1, "soak phases; each rolls a fresh seed off the base seed")
		proxySvc = flag.Bool("proxysvc", false, "front service listeners with chaos proxies too")
		minAfter = flag.Duration("minafter", 2*time.Second, "earliest fault")
		over     = flag.Duration("over", 6*time.Second, "fault window width")
		stallFor = flag.Duration("stallfor", time.Second, "freeze length")
		drop     = flag.Float64("drop", 0, "proxy frame drop probability")
		dup      = flag.Float64("dup", 0, "proxy frame duplication probability")
		delay    = flag.Float64("delay", 0, "proxy frame delay probability")
		maxDelay = flag.Duration("maxdelay", 2*time.Millisecond, "proxy max injected delay")
		reset    = flag.Float64("reset", 0, "proxy mid-stream connection reset probability")
		stallP   = flag.Float64("stallp", 0, "proxy half-open stall probability")
		bw       = flag.Int64("bw", 0, "proxy bandwidth cap (bytes/s, 0 = unlimited)")
		disk     = flag.Int("disk", 0, "torn-write injection: tear every Nth WAL append")
		timeout  = flag.Duration("timeout", 2*time.Minute, "wall-clock safety limit per phase")
		outPath  = flag.String("out", "BENCH_soak.json", "report path (empty = stdout only)")
		regress  = flag.String("regress", "", "baseline BENCH_soak.json to gate goodput against (empty = no gate)")
		regTol   = flag.Float64("regress-tol", 0.2, "fractional goodput drop tolerated by -regress")
		detMode  = flag.String("detmode", "off", "determinant suppression policy on the CN daemons (off, adaptive)")
		verbose  = flag.Bool("v", false, "stream supervision log to stderr")
	)
	flag.Parse()

	if _, err := deploy.ParseDetMode(*detMode); err != nil {
		fatal(err)
	}

	roles, err := parseRoles(*rolesStr)
	if err != nil {
		fatal(err)
	}
	// Read the baseline up front: -regress and -out may name the same
	// file, and the fresh series must be gated against the committed
	// numbers, not its own.
	var baseline []byte
	if *regress != "" {
		baseline, err = os.ReadFile(*regress)
		if err != nil {
			fatal(fmt.Errorf("regression baseline: %w", err))
		}
	}

	exe, err := os.Executable()
	if err != nil {
		fatal(err)
	}
	cfg := deploy.SoakConfig{
		Exe:       exe,
		CNs:       *cns,
		ELs:       *els,
		CSs:       *css,
		Laps:      *laps,
		HoldMS:    *holdMS,
		Payload:   *payload,
		Seed:      *seed,
		Kills:     *kills,
		Stalls:    *stalls,
		KillRoles: roles,

		MinAfter: *minAfter,
		Over:     *over,
		StallFor: *stallFor,
		Proxy: transport.ProxyPolicy{
			ChaosPolicy: transport.ChaosPolicy{
				Seed:      *seed,
				Drop:      *drop,
				Duplicate: *dup,
				Delay:     *delay,
				MaxDelay:  *maxDelay,
			},
			Reset:     *reset,
			Stall:     *stallP,
			Bandwidth: *bw,
		},
		ProxyServices:  *proxySvc,
		DiskFaultEvery: *disk,
		DetMode:        *detMode,
		Timeout:        *timeout,
	}
	if *verbose {
		cfg.Log = os.Stderr
	}

	ser, err := deploy.RunSoakSeries(cfg, *phases)
	if err != nil {
		fatal(err)
	}
	enc, err := json.MarshalIndent(ser, "", "  ")
	if err != nil {
		fatal(err)
	}
	if *outPath != "" {
		if err := os.WriteFile(*outPath, append(enc, '\n'), 0o644); err != nil {
			fatal(err)
		}
		fmt.Printf("soak: report → %s\n", *outPath)
	} else {
		fmt.Println(string(enc))
	}
	for i, rep := range ser.Phases {
		fmt.Printf("soak: phase %d: seed=%d laps=%d/%d kills=%v stalls=%d respawns=%d duration=%dms\n",
			i+1, rep.Seed, rep.LapsDone, rep.CNs*rep.LapsPerRank, rep.RoleKills, rep.Stalls, rep.Respawns, rep.DurationMS)
		fmt.Printf("soak: phase %d: %s\n", i+1, rep.AuditSummary)
		fmt.Printf("soak: phase %d: %s\n", i+1, rep.HBSummary)
	}
	fmt.Printf("soak: %d phases, %d laps, %.1f laps/s, kills per role %v\n",
		len(ser.Phases), ser.LapsDone, ser.GoodputLPS, ser.RoleKills)

	ok := ser.OK
	if baseline != nil {
		if err := deploy.CheckGoodputRegression(ser.GoodputLPS, baseline, *regTol); err != nil {
			fmt.Fprintln(os.Stderr, "soak: FAIL:", err)
			ok = false
		} else {
			fmt.Printf("soak: goodput %.1f laps/s within %.0f%% of baseline\n", ser.GoodputLPS, *regTol*100)
		}
	}
	if !ok {
		for _, f := range ser.Failures {
			fmt.Fprintln(os.Stderr, "soak: FAIL:", f)
		}
		os.Exit(1)
	}
	fmt.Println("soak: OK")
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "soak:", err)
	os.Exit(1)
}
