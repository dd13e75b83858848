package main

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"os"
	"runtime"
	"runtime/debug"
	"sync"
	"time"

	"mpichv/internal/daemon"
	"mpichv/internal/mpi"
	"mpichv/internal/transport"
	"mpichv/internal/wire"
)

// sizes fixes the shape of the workloads. Lap counts, not timers, place
// every checkpoint and kill, which is what makes recovery time repeat.
type sizes struct {
	warm0b, warm256k, warmHalo, warmRing int // untimed warm-up laps after the connection pass

	trial256k int // laps per fresh system: the SAVED log of a run without checkpoints only grows
	rssLap0b  int // peak_rss_mb is read when rank 0 completes this lap (iteration), so that
	rssIter   int // memory is compared at a fixed amount of work, not at whatever 10 s allowed;
	// both are about a third of what an undisturbed run reaches, so a slowed run reaches them too
	window0b  int // laps per stall window on the ping-pongs
	window256 int
	seg0b     int // laps per throughput segment on pingpong_0b; trials are the segments elsewhere

	haloBlock int // bytes per halo block
	ckptEvery int // halo iterations between checkpoint orders
	state     int // application state bytes per rank in a checkpoint image

	ringBlock   int
	ringCkptLap int // the victim is ordered to checkpoint here
	ringReplay  int // laps between the checkpoint and the kill: the replay length
	ringJitter  int // seed-chosen extra laps before the kill, in [0, ringJitter)
	ringTail    int // laps after the kill
}

// rssLap is the lap at which a workload reads peak_rss_mb, 0 for the
// trial workloads, which read it when the region ends.
func (s sizes) rssLap(workload string) int {
	switch workload {
	case "pingpong_0b":
		return s.rssLap0b
	case "halo_ckpt":
		return s.rssIter
	}
	return 0
}

var fullSizes = sizes{
	warm0b: 2000, warm256k: 20, warmHalo: 200, warmRing: 200,
	trial256k: 200, rssLap0b: 50000, rssIter: 5000, window0b: 100, window256: 100, seg0b: 5000,
	haloBlock: 1 << 10, ckptEvery: 250, state: 1 << 20,
	ringBlock: 1 << 10, ringCkptLap: 300, ringReplay: 2000, ringJitter: 100, ringTail: 300,
}

const (
	tagData = 1
	tagLast = 2 // the lap that ends a time-bounded region

	payload256k = 256 << 10
)

// runEnv is what one measured region is given.
type runEnv struct {
	seed     uint64
	budget   time.Duration // how long to measure
	deadline time.Time     // when a region still running counts as hung
	dir      string        // work directory: one sub-directory of WALs per system
	tr       *tracer       // nil for the untraced, end-to-end runs
	sz       sizes
	corrupt  bool // self-test: damage one payload, so the output checks must fail
}

// result is what one measured region yields.
type result struct {
	ops, failed  int64 // laps, iterations or trials attempted; mismatches, unverified trials, hung ops
	laps         []int64
	stalls       []float64 // ms: see README, stall_p50_ms
	setups       []float64 // s, system assembly to first timed lap, one per system
	rates        []float64 // application messages per second, one per segment or trial
	rssKB        float64   // VmHWM at the workload's fixed lap; 0 if the region ended before it
	msgs         int64     // application messages delivered
	payloadBytes int64     // useful bytes delivered
	problems     []string
	mu           sync.Mutex // guards failed and problems: every rank verifies

	// Counters read from public Stats() after each system stopped.
	tcp          transport.TCPStats
	ds           daemon.Stats
	elDuplicates int64
	csSavedBytes int64
	csImageLast  int64
	savedLogEnd  int64
}

func (r *result) problem(format string, args ...any) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.failed++
	if len(r.problems) < 10 {
		r.problems = append(r.problems, fmt.Sprintf(format, args...))
	}
}

// splitmix64 is the seed expander: the same seed gives the same bytes,
// victims and offsets.
type splitmix64 uint64

func (s *splitmix64) next() uint64 {
	*s += 0x9e3779b97f4a7c15
	z := uint64(*s)
	z = (z ^ z>>30) * 0xbf58476d1ce4e5b9
	z = (z ^ z>>27) * 0x94d049bb133111eb
	return z ^ z>>31
}

func (s *splitmix64) bytes(n int) []byte {
	b := make([]byte, n+8)
	for i := 0; i < n; i += 8 {
		binary.LittleEndian.PutUint64(b[i:], s.next())
	}
	return b[:n]
}

// slowestPerWindow cuts laps into windows of w and returns each full
// window's slowest lap in ms.
func slowestPerWindow(laps []int64, w int) []float64 {
	var out []float64
	for lo := 0; lo+w <= len(laps); lo += w {
		var worst int64
		for _, v := range laps[lo : lo+w] {
			worst = max(worst, v)
		}
		out = append(out, float64(worst)/1e6)
	}
	return out
}

// segmentRates cuts laps into segments of n (the remainder joins none,
// unless there is no full segment) and returns each segment's messages
// per second at perLap messages a lap.
func segmentRates(laps []int64, n, perLap int) []float64 {
	if n <= 0 || len(laps) < n {
		n = len(laps)
	}
	var out []float64
	for lo := 0; n > 0 && lo+n <= len(laps); lo += n {
		var ns int64
		for _, v := range laps[lo : lo+n] {
			ns += v
		}
		out = append(out, ratio(float64(perLap*n), float64(ns)/1e9))
	}
	return out
}

// connect makes every pair of ranks dial in one direction only, one
// pair at a time: the lower rank sends first and the higher replies on
// the accepted connection. Two daemons dialling each other at the same
// instant each close the other's connection as stale and lose the
// frames in flight (see README, findings); this pass keeps the timed
// regions clear of that. A ring pass closes it so every rank is done.
func connect(p *mpi.Proc) {
	n, me := p.Size(), p.Rank()
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			switch me {
			case i:
				p.Send(j, tagData, nil)
				p.Recv(j, tagData)
			case j:
				p.Recv(i, tagData)
				p.Send(i, tagData, nil)
			}
		}
	}
	if me == 0 {
		p.Send(1%n, tagData, nil)
		p.Recv(n-1, tagData)
	} else {
		p.Recv(me-1, tagData)
		p.Send((me+1)%n, tagData, nil)
	}
}

// region drives systems for one workload and folds them into a result.
type region struct {
	env   *runEnv
	res   *result
	start time.Time // first timed lap of the first system
	mu    sync.Mutex
}

func (g *region) timeLeft() time.Duration {
	if g.start.IsZero() {
		return g.env.budget
	}
	return g.env.budget - time.Since(g.start)
}

// open assembles the next system in a fresh WAL directory.
func (g *region) open(spec stackSpec) (*system, string, error) {
	dir, err := os.MkdirTemp(g.env.dir, "sys")
	if err != nil {
		return nil, "", err
	}
	sys, err := newSystem(spec, dir, g.env.tr)
	return sys, dir, err
}

// close stops a system, checks and folds its counters into the result
// and frees what it held, on disk and in memory.
func (g *region) close(sys *system, dir string, finished bool) {
	r := g.res
	if !finished {
		r.problem("deadline: apps still running")
	}
	sys.quiesce()
	if sys.tcp != nil {
		t := sys.tcp.Stats()
		r.tcp.Dials += t.Dials
		r.tcp.Retransmits += t.Retransmits
		r.tcp.DroppedFrames += t.DroppedFrames
		r.tcp.StaleReplaced += t.StaleReplaced
	}
	sys.stop()
	for _, c := range sys.crashed {
		r.problem("app crashed: %s", c)
	}
	if finished {
		g.checkEventCounts(sys)
	}
	for _, d := range sys.v2 {
		addStats(&r.ds, d.Stats())
		r.savedLogEnd += d.State().LogBytes()
	}
	for _, st := range sys.elStores {
		r.elDuplicates += st.Stats().Duplicates
	}
	for _, st := range sys.csStores {
		r.csSavedBytes += st.Stats().SavedBytes
	}
	if len(sys.csStores) > 0 {
		r.csImageLast = 0
		for rank := 0; rank < sys.spec.ranks; rank++ {
			if img, ok := sys.csStores[0].Get(rank); ok {
				r.csImageLast = max(r.csImageLast, int64(len(img)))
			}
		}
	}
	os.RemoveAll(dir)
	runtime.GC()
	debug.FreeOSMemory()
}

// checkEventCounts verifies, on a stopped system, that a write quorum
// of loggers holds one determinant for every message the daemon of a
// never-killed rank delivered. (Frames received would overcount: a
// recovering peer re-sends, and duplicates are dropped on arrival.)
func (g *region) checkEventCounts(sys *system) {
	incarnations := map[int]int{}
	for _, d := range sys.v2 {
		incarnations[d.State().Rank()]++
	}
	for _, d := range sys.v2 {
		rank := d.State().Rank()
		if incarnations[rank] > 1 {
			continue
		}
		want, holders := int(d.Stats().EventsLogged), 0
		for _, st := range sys.elStores {
			if st.Count(rank) == want {
				holders++
			}
		}
		if holders < sys.spec.elq {
			g.res.problem("rank %d: %d deliveries, but %d loggers hold that many events", rank, want, holders)
		}
	}
}

// begin marks the first timed lap of a system, and checks that the
// connection pass did its job: no connection was replaced as stale.
func (g *region) begin(sys *system, assembled time.Time) time.Time {
	if sys.tcp != nil {
		if n := sys.tcp.Stats().StaleReplaced; n != 0 {
			g.res.problem("%d connections replaced as stale during warm-up: a simultaneous dial", n)
		}
	}
	now := time.Now()
	g.mu.Lock()
	if g.start.IsZero() {
		g.start = now
	}
	g.res.setups = append(g.res.setups, now.Sub(assembled).Seconds())
	g.mu.Unlock()
	return now
}

// --- ping-pong -------------------------------------------------------

// runPingpong measures rank 0's Send→Recv round trips with one message
// in flight. trialLaps > 0 cuts the region into fresh systems of that
// many laps.
func runPingpong(env *runEnv, spec stackSpec, size, warm, trialLaps, window int) *result {
	g := &region{env: env, res: &result{}}
	rng := splitmix64(env.seed)
	pat := rng.bytes(size)
	for first := true; first || (trialLaps > 0 && g.timeLeft() > 0); first = false {
		assembled := time.Now()
		sys, dir, err := g.open(spec)
		if err != nil {
			g.res.problem("assemble: %v", err)
			break
		}
		var laps []int64
		app := func(p *mpi.Proc) {
			a := env.tr.app(p)
			connect(p)
			buf := append([]byte(nil), pat...)
			check := func(b []byte, lap int64) bool {
				if len(b) != size {
					return false
				}
				if size < 8 {
					return true
				}
				return int64(binary.LittleEndian.Uint64(b)) == lap && bytes.Equal(b[8:], pat[8:])
			}
			if p.Rank() == 1 {
				for lap := int64(-warm); ; lap++ {
					b, st := a.recv(0, mpi.AnyTag)
					if !check(b, lap) {
						// Echo the damage: rank 0 counts it.
						b = nil
					}
					if env.corrupt && lap == 3 {
						b = append(append([]byte(nil), b...), 0xff)
					}
					a.send(0, tagData, b)
					if st.Tag == tagLast {
						return
					}
				}
			}
			var stopAt time.Time
			for lap := int64(-warm); ; lap++ {
				if lap == 0 {
					stopAt = g.begin(sys, assembled).Add(g.timeLeft())
					laps = make([]int64, 0, 1<<16)
				}
				if size >= 8 {
					binary.LittleEndian.PutUint64(buf, uint64(lap))
				}
				t0 := time.Now()
				last := lap >= 0 && (t0.After(stopAt) || (trialLaps > 0 && int(lap) == trialLaps-1))
				tag := tagData
				if last {
					tag = tagLast
				}
				a.send(1, tag, buf)
				b, _ := a.recv(1, tagData)
				t1 := time.Now()
				if lap >= 0 {
					a.lap(len(laps), t0, t1)
					laps = append(laps, int64(t1.Sub(t0)))
					if trialLaps == 0 && len(laps) == env.sz.rssLap0b {
						g.res.rssKB = procStatusKB("VmHWM")
					}
					if !check(b, lap) {
						g.res.problem("lap %d: echoed payload differs", lap)
					}
				}
				if last {
					return
				}
			}
		}
		sys.launch(app)
		finished := sys.waitApps(env.deadline)
		r := g.res
		r.ops += int64(len(laps))
		r.msgs += 2 * int64(len(laps))
		r.payloadBytes += 2 * int64(size) * int64(len(laps))
		seg := len(laps)
		if trialLaps == 0 {
			seg = env.sz.seg0b
		}
		r.rates = append(r.rates, segmentRates(laps, seg, 2)...)
		r.laps = append(r.laps, laps...)
		r.stalls = append(r.stalls, slowestPerWindow(laps, window)...)
		g.close(sys, dir, finished)
		if !finished {
			break
		}
	}
	return g.res
}

// --- halo exchange with checkpoints ----------------------------------

// runHalo measures iterations of a 4-rank nearest-neighbour exchange
// (Irecv×2, Isend×2, Waitall) while the harness, as the checkpoint
// scheduler, orders one rank to checkpoint every ckptEvery iterations.
func runHalo(env *runEnv) *result {
	g := &region{env: env, res: &result{}}
	sz := env.sz
	rng := splitmix64(env.seed)
	pats := [4][]byte{}
	for i := range pats {
		pats[i] = rng.bytes(sz.haloBlock)
	}
	rotate := int(rng.next() % 4)
	states := [4][]byte{}
	for i := range states {
		states[i] = rng.bytes(sz.state)
	}

	assembled := time.Now()
	sys, dir, err := g.open(servicePlane())
	if err != nil {
		g.res.problem("assemble: %v", err)
		return g.res
	}
	var laps []int64
	ordered := map[int]int64{} // rank → iteration of its first checkpoint order; rank 0's app writes it
	// Block layout: iteration, stop-at iteration (0 = not decided), then
	// the sender's pattern.
	const hdr = 16
	app := func(p *mpi.Proc) {
		a := env.tr.app(p)
		me, n := p.Rank(), p.Size()
		left, right := (me+n-1)%n, (me+1)%n
		took := false
		p.SetStateProvider(func() []byte { took = true; return states[me] })
		connect(p)
		out := append([]byte(nil), pats[me]...)
		var stopAt int64
		var deadline time.Time
		for it := int64(-sz.warmHalo); stopAt == 0 || it <= stopAt; it++ {
			if me == 0 && it == 0 {
				deadline = g.begin(sys, assembled).Add(g.timeLeft())
				laps = make([]int64, 0, 1<<16)
			}
			t0 := time.Now()
			if me == 0 && it >= 0 && stopAt == 0 && t0.After(deadline) {
				stopAt = it + 3 // two hops reach rank 2 with an iteration to spare
			}
			binary.LittleEndian.PutUint64(out, uint64(it))
			binary.LittleEndian.PutUint64(out[8:], uint64(stopAt))
			rl, rr := p.Irecv(left, tagData), p.Irecv(right, tagData)
			sl, sr := p.Isend(left, tagData, out), p.Isend(right, tagData, out)
			if env.corrupt && me == 2 && it == 3 {
				out[hdr+1] ^= 0xff
			}
			a.waitall([]*mpi.Request{rl, rr, sl, sr})
			for _, in := range []struct {
				from int
				b    []byte
			}{{left, rl.Data()}, {right, rr.Data()}} {
				if len(in.b) != sz.haloBlock || int64(binary.LittleEndian.Uint64(in.b)) != it ||
					!bytes.Equal(in.b[hdr:], pats[in.from][hdr:]) {
					g.res.problem("rank %d iteration %d: block from %d differs", me, it, in.from)
					continue
				}
				if s := int64(binary.LittleEndian.Uint64(in.b[8:])); s != 0 && stopAt == 0 {
					stopAt = s
				}
			}
			if env.corrupt && me == 2 && it == 3 {
				out[hdr+1] ^= 0xff
			}
			if me == 0 && it >= 0 && it%int64(sz.ckptEvery) == 0 {
				target := (rotate + int(it)/sz.ckptEvery) % n
				if _, again := ordered[target]; !again {
					ordered[target] = it
				}
				sys.sched.Send(target, wire.KCkptOrder, nil)
			}
			took = false
			c0 := time.Now()
			a.checkpointPoint()
			t1 := time.Now()
			if took && it >= 0 {
				g.mu.Lock()
				g.res.stalls = append(g.res.stalls, float64(t1.Sub(c0))/1e6)
				g.mu.Unlock()
			}
			if me == 0 && it >= 0 {
				a.lap(len(laps), t0, t1)
				laps = append(laps, int64(t1.Sub(t0)))
				if len(laps) == sz.rssIter {
					g.res.rssKB = procStatusKB("VmHWM")
				}
			}
		}
	}
	sys.launch(app)
	finished := sys.waitApps(env.deadline)
	r := g.res
	// Every rank runs the iterations rank 0 runs and receives two blocks
	// in each.
	perIter := 2 * sys.spec.ranks
	r.ops = int64(len(laps))
	r.msgs = int64(perIter * len(laps))
	r.payloadBytes = r.msgs * int64(sz.haloBlock)
	// One segment: checkpoints make any shorter stretch unrepresentative.
	r.rates = segmentRates(laps, len(laps), perIter)
	r.laps = laps
	if finished {
		// An order issued in the last few iterations may reach a rank
		// that has already left its loop; only earlier ones must be served.
		served := map[int]bool{}
		for rank, it := range ordered {
			served[rank] = it+10 <= int64(len(laps))
		}
		g.checkImages(sys, served)
	}
	g.close(sys, dir, finished)
	return r
}

// checkImages verifies that a write quorum of checkpoint servers holds
// an image for every rank that was ordered to checkpoint. The last
// transfer may still be streaming when the apps return.
func (g *region) checkImages(sys *system, ordered map[int]bool) {
	until := time.Now().Add(3 * time.Second)
	for rank, due := range ordered {
		for due {
			holders := 0
			for _, st := range sys.csStores {
				if st.Has(rank) {
					holders++
				}
			}
			if holders >= sys.spec.csq {
				break
			}
			if time.Now().After(until) {
				g.res.problem("rank %d was ordered to checkpoint, but %d servers hold an image", rank, holders)
				break
			}
			time.Sleep(5 * time.Millisecond)
		}
	}
}

// --- token ring with a crash -----------------------------------------

// runRingRecover runs trials in fresh systems: a 4-rank token ring, the
// victim checkpoints at a fixed lap, is killed a fixed number of laps
// later and respawned at once; the run must end with the token a
// fault-free run ends with.
func runRingRecover(env *runEnv) *result {
	g := &region{env: env, res: &result{}}
	sz := env.sz
	rng := splitmix64(env.seed)
	pat := rng.bytes(sz.ringBlock)
	state := rng.bytes(sz.state)
	for first := true; first || g.timeLeft() > 0; first = false {
		victim := 1 + int(rng.next()%3)
		killLap := sz.ringCkptLap + sz.ringReplay + int(rng.next()%uint64(sz.ringJitter))
		total := killLap + sz.ringTail
		g.res.ops++
		if !g.ringTrial(pat, state, victim, killLap, total) {
			break
		}
	}
	return g.res
}

func (g *region) ringTrial(pat, state []byte, victim, killLap, total int) (finished bool) {
	env, sz, r := g.env, g.env.sz, g.res
	assembled := time.Now()
	sys, dir, err := g.open(servicePlane())
	if err != nil {
		r.problem("assemble: %v", err)
		return false
	}
	lapEnd := make([]time.Time, 0, total)
	var lapStart time.Time
	kill := make(chan struct{}, 1)
	ready := make(chan struct{}) // closed when the respawned victim has replayed up to the kill
	var killedAt time.Time
	var final uint64
	var app func(p *mpi.Proc)
	app = func(p *mpi.Proc) {
		a := env.tr.app(p)
		me, n := p.Rank(), p.Size()
		left, right := (me+n-1)%n, (me+1)%n
		// lap counts from -warm; the image holds the next lap to run and
		// the token as this rank last saw it.
		lap, token := -sz.warmRing, uint64(0)
		img := append([]byte(nil), state...)
		p.SetStateProvider(func() []byte {
			binary.LittleEndian.PutUint64(img, uint64(int64(lap)))
			binary.LittleEndian.PutUint64(img[8:], token)
			return img
		})
		blob, respawned := p.Restarted()
		if len(blob) >= 16 {
			lap = int(int64(binary.LittleEndian.Uint64(blob)))
			token = binary.LittleEndian.Uint64(blob[8:])
		} else {
			connect(p) // a fresh start, or a replay from the very beginning
		}
		buf := append([]byte(nil), pat...)
		for lap < total {
			if respawned && lap == killLap+1 {
				close(ready)
			}
			if me == 0 {
				if lap == 0 {
					lapStart = g.begin(sys, assembled)
				}
				t0 := time.Now()
				binary.LittleEndian.PutUint64(buf, token+1)
				a.send(right, tagData, buf)
				b, _ := a.recv(left, tagData)
				t1 := time.Now()
				if len(b) != len(pat) || !bytes.Equal(b[8:], pat[8:]) {
					r.problem("lap %d: token block differs", lap)
				} else {
					token = binary.LittleEndian.Uint64(b)
				}
				if lap >= 0 {
					a.lap(lap, t0, t1)
					lapEnd = append(lapEnd, t1)
					if token != uint64(n*(lap+sz.warmRing+1)) {
						r.problem("lap %d: token %d, a fault-free run has %d", lap, token, n*(lap+sz.warmRing+1))
					}
				}
				switch lap {
				case sz.ringCkptLap:
					sys.sched.Send(victim, wire.KCkptOrder, nil)
				case killLap:
					// The token is held here until the respawned victim has
					// replayed its way back. A rank that sends to a respawning
					// neighbour before the neighbour's own connection to it is
					// registered dials it too; each end then closes the other's
					// connection as stale, frames are lost and, the pull timer
					// being off by default, the run hangs (README, findings).
					kill <- struct{}{}
					select {
					case <-ready:
					case <-time.After(time.Until(env.deadline)):
					}
				}
			} else {
				b, _ := a.recv(left, tagData)
				if len(b) == len(pat) {
					token = binary.LittleEndian.Uint64(b) + 1
				}
				binary.LittleEndian.PutUint64(buf, token)
				if env.corrupt && me == 2 && lap == 3 {
					buf[0] ^= 0x01
				}
				a.send(right, tagData, buf)
			}
			lap++
			a.checkpointPoint()
		}
		if me == 0 {
			final = token
		}
	}
	sys.launch(app)
	crashed := make(chan struct{})
	go func() {
		defer close(crashed)
		select {
		case <-kill:
		case <-time.After(time.Until(env.deadline)):
			return
		}
		killedAt = time.Now()
		sys.fab.Kill(victim)
		sys.respawn(victim, 1, app)
	}()
	finished = sys.waitApps(env.deadline)
	if finished {
		<-crashed
		finished = sys.waitApps(env.deadline) // the respawned victim
	}
	if finished {
		want := uint64(sys.spec.ranks * (total + sz.warmRing))
		if final != want {
			r.problem("final token %d, a fault-free run ends with %d", final, want)
		}
		var laps []int64
		prev := lapStart
		hit := -1
		for i, e := range lapEnd {
			laps = append(laps, int64(e.Sub(prev)))
			prev = e
			if hit < 0 && !killedAt.IsZero() && e.After(killedAt) {
				hit = i
			}
		}
		// The kill falls between laps: lap hit waits out the recovery,
		// lap hit+1 shows the ring turning again.
		if hit >= 0 && hit+1 < len(lapEnd) {
			r.stalls = append(r.stalls, float64(lapEnd[hit+1].Sub(killedAt))/1e6)
		} else {
			r.problem("trial has no lap after the kill")
		}
		r.laps = append(r.laps, laps...)
		r.msgs += int64(sys.spec.ranks * len(laps))
		r.payloadBytes += int64(sys.spec.ranks*len(laps)) * int64(sz.ringBlock)
		r.rates = append(r.rates, segmentRates(laps, len(laps), sys.spec.ranks)...)
		g.checkImages(sys, map[int]bool{victim: true})
	}
	replayed := r.ds.Replayed // of the trials before this one
	g.close(sys, dir, finished)
	if finished && r.ds.Replayed == replayed {
		r.problem("the respawned rank replayed nothing")
	}
	return finished
}

// runWorkload dispatches by name.
func runWorkload(name string, env *runEnv) (*result, error) {
	sz := env.sz
	switch name {
	case "pingpong_0b":
		return runPingpong(env, pingpongStack(), 0, sz.warm0b, 0, sz.window0b), nil
	case "pingpong_256k":
		return runPingpong(env, pingpongStack(), payload256k, sz.warm256k, sz.trial256k, sz.window256), nil
	case "halo_ckpt":
		return runHalo(env), nil
	case "ring_recover":
		return runRingRecover(env), nil
	}
	return nil, fmt.Errorf("unknown workload %q", name)
}
