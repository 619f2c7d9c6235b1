package cache

import (
	"bytes"
	"encoding/gob"
	"fmt"
	"strings"
)

// Snapshot is a deep value copy of a cache's mutable state: line metadata,
// partition counters, the LRU stamp source, and the traffic counters. It is
// immutable once taken, so one snapshot can seed any number of restored
// caches (the warm-start path clones machines concurrently from a shared
// snapshot).
type Snapshot struct {
	geometry string // config fingerprint guarding against cross-machine restores
	lines    []line // flattened [set*ways+way]
	pstate   []setState
	nextID   uint64
	stats    Stats
}

// geometryKey identifies the cache shape a snapshot belongs to. Restoring
// into a differently shaped cache is always a programming error.
func geometryKey(cfg Config) string {
	part := "none"
	if cfg.Partition != nil {
		p := cfg.Partition
		part = fmt.Sprintf("%d-%d-%d-%d-%d", p.MinIOWays, p.MaxIOWays, p.Period, p.TLow, p.THigh)
	}
	return fmt.Sprintf("%dx%dx%d/ddio=%v/%d/part=%s",
		cfg.Slices, cfg.SetsPerSlice, cfg.Ways, cfg.DDIO, cfg.DDIOWays, part)
}

// Snapshot captures the cache's full mutable state. The returned value is
// immutable and safe to restore into any cache of identical geometry.
func (c *Cache) Snapshot() *Snapshot {
	s := &Snapshot{}
	c.SnapshotInto(s)
	return s
}

// SnapshotInto captures the cache's state into a caller-owned scratch
// snapshot, reusing its backing slices. It exists for the offline/build
// path and benchmarks that snapshot repeatedly; a snapshot filed in an
// artifact must be a fresh Snapshot(), since artifacts rely on snapshot
// immutability.
func (c *Cache) SnapshotInto(s *Snapshot) {
	s.geometry = c.geo
	s.lines = append(s.lines[:0], c.lines...)
	s.pstate = s.pstate[:0]
	if c.pstate != nil {
		s.pstate = append(s.pstate, c.pstate...)
	}
	s.nextID = c.nextID
	s.stats = c.stats
}

// Restore overwrites the cache's mutable state from a snapshot taken on a
// cache with identical geometry. It panics on a geometry mismatch — that
// can only mean two different machines' state got crossed. Geometry never
// changes after New, so the comparison runs against the key cached at
// construction and the whole restore is copy-only: the rig-pool lease path
// runs one per warm trial and stays allocation-free.
func (c *Cache) Restore(s *Snapshot) {
	if c.geo != s.geometry {
		panic(fmt.Sprintf("cache: restoring snapshot of %q into %q", s.geometry, c.geo))
	}
	copy(c.lines, s.lines)
	if c.pstate != nil {
		copy(c.pstate, s.pstate)
	}
	c.nextID = s.nextID
	c.stats = s.stats
}

// snapshotGob mirrors Snapshot with exported fields for the disk-backed
// artifact store: per-field slices rather than the internal structs, so
// the wire format does not depend on unexported layout.
type snapshotGob struct {
	Geometry string
	// Line metadata, flattened [set*ways+way] like Snapshot.lines.
	Tags             []uint64
	Valid, Dirty, IO []bool
	Stamps           []uint64
	// Partition per-set counters (empty when the defense is off).
	Quota                  []int
	LastAdapt, OccupCycles []uint64
	LastUpd                []uint64
	HasIO                  []bool
	NextID                 uint64
	Stats                  Stats
}

// GobEncode serializes the snapshot (disk-backed warm starts). The
// snapshot's contents round-trip exactly; a decoded snapshot restores
// machines bit-identically to the original.
func (s *Snapshot) GobEncode() ([]byte, error) {
	w := snapshotGob{
		Geometry: s.geometry,
		NextID:   s.nextID,
		Stats:    s.stats,
	}
	w.Tags = make([]uint64, len(s.lines))
	w.Valid = make([]bool, len(s.lines))
	w.Dirty = make([]bool, len(s.lines))
	w.IO = make([]bool, len(s.lines))
	w.Stamps = make([]uint64, len(s.lines))
	for i, l := range s.lines {
		w.Tags[i], w.Valid[i], w.Dirty[i], w.IO[i], w.Stamps[i] = l.tag, l.valid, l.dirty, l.io, l.stamp
	}
	w.Quota = make([]int, len(s.pstate))
	w.LastAdapt = make([]uint64, len(s.pstate))
	w.OccupCycles = make([]uint64, len(s.pstate))
	w.LastUpd = make([]uint64, len(s.pstate))
	w.HasIO = make([]bool, len(s.pstate))
	for i, p := range s.pstate {
		w.Quota[i], w.LastAdapt[i], w.OccupCycles[i], w.LastUpd[i], w.HasIO[i] =
			p.quota, p.lastAdapt, p.occupCycles, p.lastUpd, p.hasIO
	}
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(w); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// GobDecode rebuilds a snapshot from its serialized form.
func (s *Snapshot) GobDecode(b []byte) error {
	var w snapshotGob
	if err := gob.NewDecoder(bytes.NewReader(b)).Decode(&w); err != nil {
		return err
	}
	if err := w.validate(); err != nil {
		return err
	}
	s.geometry = w.Geometry
	s.nextID = w.NextID
	s.stats = w.Stats
	s.lines = make([]line, len(w.Tags))
	for i := range s.lines {
		s.lines[i] = line{tag: w.Tags[i], valid: w.Valid[i], dirty: w.Dirty[i], io: w.IO[i], stamp: w.Stamps[i]}
	}
	s.pstate = nil
	if len(w.Quota) > 0 {
		s.pstate = make([]setState, len(w.Quota))
		for i := range s.pstate {
			s.pstate[i] = setState{
				quota: w.Quota[i], lastAdapt: w.LastAdapt[i],
				occupCycles: w.OccupCycles[i], lastUpd: w.LastUpd[i], hasIO: w.HasIO[i],
			}
		}
	}
	return nil
}

// validate checks a decoded snapshot against the geometry it claims (in
// geometryKey's format), so a corrupt disk entry fails to decode and the
// artifact store rebuilds, instead of panicking on a short slice or
// restoring a partial cache.
func (w *snapshotGob) validate() error {
	var nslices, sets, ways int
	if _, err := fmt.Sscanf(w.Geometry, "%dx%dx%d/", &nslices, &sets, &ways); err != nil ||
		nslices <= 0 || sets <= 0 || ways <= 0 || nslices > 1<<20 || sets > 1<<20 || ways > 1<<10 {
		return fmt.Errorf("cache: corrupt snapshot geometry %q", w.Geometry)
	}
	nlines := nslices * sets * ways
	for _, n := range []int{len(w.Tags), len(w.Valid), len(w.Dirty), len(w.IO), len(w.Stamps)} {
		if n != nlines {
			return fmt.Errorf("cache: corrupt snapshot: %d-line field in %q", n, w.Geometry)
		}
	}
	nsets := 0
	if !strings.HasSuffix(w.Geometry, "/part=none") {
		nsets = nslices * sets
	}
	for _, n := range []int{len(w.Quota), len(w.LastAdapt), len(w.OccupCycles), len(w.LastUpd), len(w.HasIO)} {
		if n != nsets {
			return fmt.Errorf("cache: corrupt snapshot: %d-set partition field in %q", n, w.Geometry)
		}
	}
	for _, q := range w.Quota {
		if q < 0 || q >= ways {
			return fmt.Errorf("cache: corrupt snapshot: partition quota %d of %d ways", q, ways)
		}
	}
	return nil
}
