// Package shard implements the deterministic placement function of the
// event-logger / checkpoint-server fleet layer (DESIGN.md §15): a
// consistent-hash ring that maps a channel (sender, receiver) to a shard
// index, with successor takeover when a shard is down and minimal key
// movement by construction.
//
// The ring uses a fixed slot table (Redis-Cluster style hash slots)
// rather than avalanche hashing of keys onto a point circle. The key →
// slot map is an affine mix of sender and receiver — slot = s·a + r·b
// over Z_1024 with a seeded odd a and even b; the slot → shard map is
// the static balanced assignment slot mod shards. Affine-over-a-power-
// of-two is deliberate: MPI communicators produce regular channel sets,
// and the parities are chosen for exactly those. An odd a makes
// receiver fans {(s, me)} and full grids {0..n-1}² equidistribute (for
// each receiver, s·a walks every residue class — a mixing hash would
// give multinomial imbalance at small channel counts, routinely landing
// 3× load on one shard from dozens of channels over 8). An even b makes
// the combined stride a+b odd, so nearest-neighbor paths and rings
// {(r, r+1)} also cycle through every shard instead of aliasing onto
// the even residues. Membership changes touch only the slot → shard
// layer: when shard k is down its slots — and nothing else — resolve to
// k's successor, so key movement is exactly the dead shard's share.
package shard

// NSlots is the fixed slot-table size. A power of two so that seeded odd
// multipliers are bijections on the slot space.
const NSlots = 1024

// Seed is the placement seed of every fleet: the event-logger ring uses
// Seed, the checkpoint-server ring Seed+1, so daemons, dispatcher and
// harness place every channel and every rank identically.
const Seed = 42

// Ring is an immutable placement function: (sender, receiver) → shard.
// Liveness is not ring state — callers pass the current dead set, so one
// ring value is shared by daemons, dispatcher, and harness without
// coordination.
type Ring struct {
	shards int
	a, b   uint64
}

// New returns the ring for a fleet of shards. The seed varies the
// slot permutation between deployments; the mapping is a pure function
// of (shards, seed).
func New(shards int, seed uint64) *Ring {
	if shards <= 0 {
		panic("shard: ring needs at least one shard")
	}
	// SplitMix64 finalizer over the seed; a forced odd, b forced even
	// (see the package comment for why the parities matter).
	mix := func(x uint64) uint64 {
		x += 0x9e3779b97f4a7c15
		x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
		x = (x ^ (x >> 27)) * 0x94d049bb133111eb
		return x ^ (x >> 31)
	}
	return &Ring{shards: shards, a: mix(seed) | 1, b: mix(seed+1) &^ 1}
}

// Shards reports the fleet size.
func (r *Ring) Shards() int { return r.shards }

// Slot maps a channel to its hash slot.
func (r *Ring) Slot(sender, receiver int) int {
	return int((uint64(sender)*r.a + uint64(receiver)*r.b) % NSlots)
}

// Owner maps a channel to its base shard, ignoring liveness.
func (r *Ring) Owner(sender, receiver int) int {
	return r.Slot(sender, receiver) % r.shards
}

// Successor returns the next live shard after k in ring order. If every
// shard is dead it returns k itself.
func (r *Ring) Successor(k int, dead map[int]bool) int {
	for i := 1; i < r.shards; i++ {
		s := (k + i) % r.shards
		if !dead[s] {
			return s
		}
	}
	return k
}

// OwnerLive maps a channel to the shard serving it under the given dead
// set: the base owner if live, otherwise its successor. dead may be nil.
func (r *Ring) OwnerLive(sender, receiver int, dead map[int]bool) int {
	k := r.Owner(sender, receiver)
	if len(dead) == 0 || !dead[k] {
		return k
	}
	return r.Successor(k, dead)
}
