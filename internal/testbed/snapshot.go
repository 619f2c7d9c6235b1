package testbed

import (
	"bytes"
	"encoding/gob"
	"fmt"

	"repro/internal/cache"
	"repro/internal/mem"
	"repro/internal/nic"
	"repro/internal/sim"
)

// Snapshot is a deep, immutable copy of the whole machine's mutable state:
// clock cycle, cache contents, physical-memory bookkeeping, NIC/driver
// state, the noise and timer RNG stream positions, and the noise process
// cursor. One snapshot can be restored any number of times, into the
// testbed it was taken from or into a freshly constructed testbed with
// identical Options — the warm-start path clones machines that way, one
// independent clone per concurrent trial.
//
// A snapshot deliberately excludes the traffic source: Source
// implementations are arbitrary iterators with no generic state capture.
// Snapshots are therefore taken between traffic phases (the phase-split
// experiment API snapshots after the offline phase, before any online
// stream is installed) and Restore leaves the machine with no traffic.
type Snapshot struct {
	clock uint64
	cache *cache.Snapshot
	alloc *mem.AllocatorState
	nic   *nic.Snapshot

	noiseRNG sim.RNGState
	timerRNG sim.RNGState

	noiseRate   float64
	timerNoise  uint64
	noisePeriod uint64
	noiseNextAt uint64
	noiseSpace  uint64
}

// Snapshot captures the machine state. It fails when a traffic source is
// installed or a frame is already peeked from one: traffic cursors cannot
// be captured generically, so snapshotting mid-stream would silently drop
// frames on restore.
func (tb *Testbed) Snapshot() (*Snapshot, error) {
	if tb.traffic != nil || tb.nextFrame != nil {
		return nil, fmt.Errorf("testbed: cannot snapshot with a traffic source installed")
	}
	return &Snapshot{
		clock:       tb.clock.Snapshot(),
		cache:       tb.cache.Snapshot(),
		alloc:       tb.alloc.Snapshot(),
		nic:         tb.nic.Snapshot(),
		noiseRNG:    tb.noiseRNG.Snapshot(),
		timerRNG:    tb.timerRNG.Snapshot(),
		noiseRate:   tb.opts.NoiseRate,
		timerNoise:  tb.opts.TimerNoise,
		noisePeriod: tb.noisePeriod,
		noiseNextAt: tb.noiseNextAt,
		noiseSpace:  tb.noiseSpace,
	}, nil
}

// SnapshotInto captures the machine state into a caller-owned scratch
// snapshot, reusing the component snapshots' backing slices. It exists for
// paths that snapshot repeatedly (offline builds, benchmarks); a snapshot
// filed in an artifact must be a fresh Snapshot(), since artifacts rely on
// snapshot immutability. The traffic restriction matches Snapshot.
func (tb *Testbed) SnapshotInto(s *Snapshot) error {
	if tb.traffic != nil || tb.nextFrame != nil {
		return fmt.Errorf("testbed: cannot snapshot with a traffic source installed")
	}
	if s.cache == nil {
		s.cache = &cache.Snapshot{}
	}
	if s.alloc == nil {
		s.alloc = &mem.AllocatorState{}
	}
	if s.nic == nil {
		s.nic = &nic.Snapshot{}
	}
	s.clock = tb.clock.Snapshot()
	tb.cache.SnapshotInto(s.cache)
	tb.alloc.SnapshotInto(s.alloc)
	tb.nic.SnapshotInto(s.nic)
	s.noiseRNG = tb.noiseRNG.Snapshot()
	s.timerRNG = tb.timerRNG.Snapshot()
	s.noiseRate = tb.opts.NoiseRate
	s.timerNoise = tb.opts.TimerNoise
	s.noisePeriod = tb.noisePeriod
	s.noiseNextAt = tb.noiseNextAt
	s.noiseSpace = tb.noiseSpace
	return nil
}

// NewShell assembles a machine with no ring/skb page allocation and no RNG
// warm-up — a restore target. Its allocator and RNGs run on placeholder
// streams and its ring is zeroed, so a shell that is never restored must
// not be used; every clone path pairs it with Restore (or a variant),
// which overwrites all of that wholesale.
func NewShell(opts Options) (*Testbed, error) {
	if opts.MemBytes == 0 {
		opts.MemBytes = 1 << 30
	}
	clock := sim.NewClock()
	c := cache.New(opts.Cache, clock)
	alloc := mem.NewAllocator(opts.MemBytes, sim.NewRNG(0))
	n, err := nic.NewShell(opts.NIC, c, alloc, clock, sim.NewRNG(0))
	if err != nil {
		return nil, fmt.Errorf("testbed: %w", err)
	}
	return &Testbed{
		opts:       opts,
		clock:      clock,
		cache:      c,
		alloc:      alloc,
		nic:        n,
		noiseRNG:   sim.NewRNG(0),
		timerRNG:   sim.NewRNG(0),
		noiseSpace: opts.MemBytes,
	}, nil
}

// NewFromSnapshot builds an independent machine directly in a snapshot's
// state — the warm-start clone path. Unlike New followed by Restore, it
// assembles component shells (no ring/skb/spy page allocation, no RNG
// warm-up) since Restore overwrites all of that wholesale; the result is
// state-identical to restoring into a conventionally built testbed with
// the same options, just cheaper. One immutable snapshot may be cloned
// concurrently any number of times.
func NewFromSnapshot(opts Options, s *Snapshot) (*Testbed, error) {
	tb, err := NewShell(opts)
	if err != nil {
		return nil, err
	}
	tb.Restore(s)
	return tb, nil
}

// Restore overwrites the machine's mutable state from a snapshot taken on
// a machine with identical geometry (same Options except, possibly, the
// online knobs NoiseRate and TimerNoise, which the snapshot carries). Any
// installed traffic source is dropped, matching the no-traffic state the
// snapshot was taken in.
func (tb *Testbed) Restore(s *Snapshot) {
	tb.restore(s, true)
}

// RestoreReseeded is Restore followed by ReseedOnline(seed), except the
// snapshot's noise/timer/driver RNG positions — which the reseed would
// immediately discard — are never replayed. Replaying those streams is
// O(offline draw history) per restore, the dominant cost of warm-starting
// from a machine whose offline phase burned millions of noise events, so
// every warm trial that decorrelates its ambient randomness takes this
// entrance. The result is state-identical to Restore+ReseedOnline.
func (tb *Testbed) RestoreReseeded(s *Snapshot, seed int64) {
	tb.restore(s, false)
	tb.ReseedOnline(seed)
}

func (tb *Testbed) restore(s *Snapshot, withRNG bool) {
	tb.clock.Restore(s.clock)
	tb.cache.Restore(s.cache)
	tb.alloc.Restore(s.alloc)
	if withRNG {
		tb.nic.Restore(s.nic)
		tb.noiseRNG.Restore(s.noiseRNG)
		tb.timerRNG.Restore(s.timerRNG)
	} else {
		tb.nic.RestoreSkipRNG(s.nic)
	}
	tb.opts.NoiseRate = s.noiseRate
	tb.opts.TimerNoise = s.timerNoise
	tb.noisePeriod = s.noisePeriod
	tb.noiseNextAt = s.noiseNextAt
	tb.noiseSpace = s.noiseSpace
	tb.traffic = nil
	tb.nextFrame = nil
}

// AdoptSnapshot rebinds a pooled machine to a (possibly different) rig's
// options and restores it into the snapshot's state, in place. The caller
// guarantees opts shares the machine's OfflineFingerprint — same geometry,
// so every buffer is reused — while non-fingerprint options (seed, online
// knobs) may differ and are adopted wholesale. This is the rig-pool lease
// path: state-identical to NewFromSnapshot(opts, s) without constructing
// anything.
func (tb *Testbed) AdoptSnapshot(opts Options, s *Snapshot) {
	tb.adopt(opts)
	tb.restore(s, true)
}

// AdoptSnapshotReseeded is AdoptSnapshot with the RestoreReseeded entrance:
// the snapshot's online RNG positions are skipped and re-derived from seed.
func (tb *Testbed) AdoptSnapshotReseeded(opts Options, s *Snapshot, seed int64) {
	tb.adopt(opts)
	tb.restore(s, false)
	tb.ReseedOnline(seed)
}

func (tb *Testbed) adopt(opts Options) {
	if opts.MemBytes == 0 {
		opts.MemBytes = 1 << 30
	}
	tb.opts = opts
	tb.noiseSpace = opts.MemBytes
}

// snapshotGob mirrors Snapshot with exported fields for the disk-backed
// artifact store. The component snapshots carry their own gob codecs, so
// this composes the same way the in-memory snapshot does.
type snapshotGob struct {
	Clock uint64
	Cache *cache.Snapshot
	Alloc *mem.AllocatorState
	NIC   *nic.Snapshot

	NoiseRNG sim.RNGState
	TimerRNG sim.RNGState

	NoiseRate   float64
	TimerNoise  uint64
	NoisePeriod uint64
	NoiseNextAt uint64
	NoiseSpace  uint64
}

// GobEncode serializes the machine snapshot (disk-backed warm starts): a
// decoded snapshot clones machines bit-identically to the original, so
// persisted offline artifacts survive process restarts.
func (s *Snapshot) GobEncode() ([]byte, error) {
	var buf bytes.Buffer
	err := gob.NewEncoder(&buf).Encode(snapshotGob{
		Clock: s.clock, Cache: s.cache, Alloc: s.alloc, NIC: s.nic,
		NoiseRNG: s.noiseRNG, TimerRNG: s.timerRNG,
		NoiseRate: s.noiseRate, TimerNoise: s.timerNoise,
		NoisePeriod: s.noisePeriod, NoiseNextAt: s.noiseNextAt, NoiseSpace: s.noiseSpace,
	})
	if err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// GobDecode rebuilds a machine snapshot from its serialized form.
func (s *Snapshot) GobDecode(b []byte) error {
	var w snapshotGob
	if err := gob.NewDecoder(bytes.NewReader(b)).Decode(&w); err != nil {
		return err
	}
	s.clock, s.cache, s.alloc, s.nic = w.Clock, w.Cache, w.Alloc, w.NIC
	s.noiseRNG, s.timerRNG = w.NoiseRNG, w.TimerRNG
	s.noiseRate, s.timerNoise = w.NoiseRate, w.TimerNoise
	s.noisePeriod, s.noiseNextAt, s.noiseSpace = w.NoisePeriod, w.NoiseNextAt, w.NoiseSpace
	return nil
}

// SetNoiseRate changes the background process's access rate mid-run — the
// online phase of a sweep applies its cell's noise level to a machine
// restored from a snapshot taken under the reference offline environment.
// The next noise event is rescheduled one full period out from now; rate 0
// disables the process.
func (tb *Testbed) SetNoiseRate(rate float64) {
	tb.opts.NoiseRate = rate
	if rate <= 0 {
		tb.noisePeriod = 0
		tb.noiseNextAt = 0
		return
	}
	tb.noisePeriod = sim.CyclesPerSecond(rate)
	tb.noiseNextAt = tb.clock.Now() + tb.noisePeriod
}

// SetTimerNoise changes the spy timer's jitter magnitude mid-run (see
// Options.TimerNoise for the one-sided jitter model).
func (tb *Testbed) SetTimerNoise(jitter uint64) {
	tb.opts.TimerNoise = jitter
}

// OfflineFingerprint is a canonical string over every option that shapes
// the offline phase of an attack: cache geometry and features, NIC/driver
// configuration, and physical memory size. The online-only knobs —
// NoiseRate, TimerNoise — and the seed are deliberately excluded; the
// artifact store combines this fingerprint with the offline seed, so two
// machines with equal fingerprints and seeds are interchangeable bit for
// bit.
func (o Options) OfflineFingerprint() string {
	c := o.Cache
	part := "nil"
	if c.Partition != nil {
		part = fmt.Sprintf("%+v", *c.Partition)
	}
	return fmt.Sprintf("cache{%d/%d/%d hit=%d miss=%d ddio=%v/%d part=%s}|nic%+v|mem=%d",
		c.Slices, c.SetsPerSlice, c.Ways, c.HitLatency, c.MissLatency,
		c.DDIO, c.DDIOWays, part, o.NIC, o.MemBytes)
}

// ReseedOnline re-derives the machine's online random streams — timer
// jitter, background noise, and the driver's reallocation draws — from a
// fresh seed, leaving the clock, cache, memory, and ring state untouched.
// Warm-started trials decorrelate this way: every trial measures the same
// prepared machine, but ambient randomness differs per trial exactly as it
// would across repeated measurements on real hardware.
// The streams are reseeded in place — this runs once per warm trial on the
// rig-lease path and must not allocate.
func (tb *Testbed) ReseedOnline(seed int64) {
	tb.noiseRNG.Reseed(sim.DeriveSeed(seed, "noise-online"))
	tb.timerRNG.Reseed(sim.DeriveSeed(seed, "timer-online"))
	tb.nic.ReseedRNG(seed)
}
