package transport

import "time"

// Backoff computes bounded exponential retry delays: retry 0 waits
// Base, every further retry doubles the wait, capped at Max (Max <= 0
// defaults to 32×Base). It is the one backoff rule shared by every
// retry loop in the system — the V2 daemon's retransmit timers, the
// service resyncs and the supervisor's respawns — so all of them age
// the same way.
//
// With Jitter > 0 each delay is shortened by up to that fraction,
// drawn from a stateless hash of (Seed, attempt): the schedule is a
// pure function of the seed, so two retry loops with different seeds
// desynchronize while any single loop replays identically run after
// run. Jitter is subtractive, keeping Max a hard upper bound.
type Backoff struct {
	Base time.Duration
	Max  time.Duration

	// Jitter is the fraction of each delay randomized away, in [0,1].
	// Zero disables jitter entirely.
	Jitter float64
	// Seed selects the jitter stream. The same seed always yields the
	// same per-attempt jitter — chaos runs stay reproducible.
	Seed uint64
}

// Delay returns the wait before retry number attempt (0-based).
func (b Backoff) Delay(attempt int) time.Duration {
	base := b.Base
	if base <= 0 {
		base = time.Millisecond
	}
	max := b.Max
	if max <= 0 {
		max = 32 * base
	}
	d := base
	for i := 0; i < attempt; i++ {
		if d >= max {
			break
		}
		d *= 2
	}
	if d > max {
		d = max
	}
	if b.Jitter > 0 {
		j := b.Jitter
		if j > 1 {
			j = 1
		}
		cut := time.Duration(j * jitterRoll(b.Seed, attempt) * float64(d))
		if cut >= d {
			cut = d - 1
		}
		d -= cut
	}
	if d <= 0 {
		d = 1
	}
	return d
}

// jitterRoll maps (seed, attempt) to a uniform variate in [0,1) via a
// splitmix64 finalizer — stateless, so Delay stays a pure function.
func jitterRoll(seed uint64, attempt int) float64 {
	x := seed + 0x9e3779b97f4a7c15*uint64(attempt+1)
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return float64(x>>11) / float64(1<<53)
}
