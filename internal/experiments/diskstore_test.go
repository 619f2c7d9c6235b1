package experiments

import (
	"bytes"
	"encoding/gob"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"
)

// measureJSON runs fig10's online phase on the artifact and serializes
// the result — the observable the disk round-trip must preserve exactly.
func measureJSON(t *testing.T, art *Artifact, seed int64) []byte {
	t.Helper()
	res, err := MeasureFig10(MeasureCtx{Scale: Demo, Seed: seed}, art)
	if err != nil {
		t.Fatal(err)
	}
	b, err := json.Marshal(res)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// TestDiskStoreRoundTrip: an artifact persisted by one store and loaded
// by a fresh store (a new process, as far as the cache is concerned)
// must skip the offline build and measure byte-identically to the
// original — the disk format must capture machine snapshots, spy state,
// and eviction sets exactly.
func TestDiskStoreRoundTrip(t *testing.T) {
	dir := t.TempDir()

	s1, err := NewDiskArtifactStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	art1, err := PrepareFig10(PrepareCtx{Scale: Demo, Seed: 7, Store: s1})
	if err != nil {
		t.Fatal(err)
	}
	if s1.Builds() != 1 || s1.DiskLoads() != 0 {
		t.Fatalf("first run: builds=%d loads=%d, want 1/0", s1.Builds(), s1.DiskLoads())
	}
	want := measureJSON(t, art1, 7)

	// A second store over the same directory models a fresh invocation.
	s2, err := NewDiskArtifactStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	art2, err := PrepareFig10(PrepareCtx{Scale: Demo, Seed: 7, Store: s2})
	if err != nil {
		t.Fatal(err)
	}
	if s2.Builds() != 0 || s2.DiskLoads() != 1 {
		t.Fatalf("second run: builds=%d loads=%d, want 0/1 (must load from disk)", s2.Builds(), s2.DiskLoads())
	}
	if got := measureJSON(t, art2, 7); !bytes.Equal(want, got) {
		t.Errorf("disk-loaded artifact measured differently:\n want %s\n got  %s", want, got)
	}

	// Different keys must not collide on disk: a different offline seed
	// builds fresh.
	if _, err := PrepareFig10(PrepareCtx{Scale: Demo, Seed: 8, Store: s2}); err != nil {
		t.Fatal(err)
	}
	if s2.Builds() != 1 {
		t.Fatalf("different seed served from disk: builds=%d, want 1", s2.Builds())
	}
}

// TestDiskStoreHealsCorruptEntries: a truncated or garbage cache file
// must be rebuilt (and overwritten), not wedge every later run.
func TestDiskStoreHealsCorruptEntries(t *testing.T) {
	dir := t.TempDir()
	s1, err := NewDiskArtifactStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := PrepareFig10(PrepareCtx{Scale: Demo, Seed: 3, Store: s1}); err != nil {
		t.Fatal(err)
	}
	ents, err := os.ReadDir(dir)
	if err != nil || len(ents) != 1 {
		t.Fatalf("expected one cache file, got %d (%v)", len(ents), err)
	}
	path := filepath.Join(dir, ents[0].Name())
	if err := os.WriteFile(path, []byte("not a gob"), 0o644); err != nil {
		t.Fatal(err)
	}

	s2, err := NewDiskArtifactStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	art, err := PrepareFig10(PrepareCtx{Scale: Demo, Seed: 3, Store: s2})
	if err != nil {
		t.Fatalf("corrupt entry must rebuild, got %v", err)
	}
	if s2.Builds() != 1 || s2.DiskLoads() != 0 {
		t.Fatalf("corrupt entry: builds=%d loads=%d, want 1/0", s2.Builds(), s2.DiskLoads())
	}
	if art.Rigs["rig"] == nil {
		t.Fatal("rebuild produced no artifact")
	}
	// The healed entry is decodable again.
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	var ra RigArtifact
	if err := gob.NewDecoder(f).Decode(&ra); err != nil {
		t.Errorf("healed cache file still corrupt: %v", err)
	}
}

// gobBytes is a pre-encoded value that gob embeds verbatim where the
// decoder expects a GobDecoder — the tool for crafting disk entries that
// decode as gob but carry corrupt component state.
type gobBytes []byte

func (b gobBytes) GobEncode() ([]byte, error) { return b, nil }

func gobOf(t *testing.T, v any) gobBytes {
	t.Helper()
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(v); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestDiskStoreHealsInconsistentState: an entry that is well-formed gob
// but whose component state is impossible — a used frame beyond the
// allocator's memory, a cache line table shorter than its geometry —
// once panicked inside the component decoder, which gob re-panics, and
// took the whole run down. It must read as a miss and be rebuilt.
func TestDiskStoreHealsInconsistentState(t *testing.T) {
	type allocWire struct {
		Unshuffled, NumPages uint64
		Used                 []uint64
	}
	type cacheWire struct {
		Geometry string
		Tags     []uint64
		Valid    []bool
	}
	entries := map[string]any{
		"allocator": struct{ Machine gobBytes }{gobOf(t, struct{ Alloc gobBytes }{
			gobOf(t, allocWire{Unshuffled: 9, NumPages: 10, Used: []uint64{100}})})},
		"cache": struct{ Machine gobBytes }{gobOf(t, struct{ Cache gobBytes }{
			gobOf(t, cacheWire{Geometry: "1x1x4/ddio=true/2/part=none", Tags: make([]uint64, 4), Valid: []bool{true}})})},
	}
	for _, name := range []string{"allocator", "cache"} {
		t.Run(name, func(t *testing.T) {
			dir := t.TempDir()
			s1, err := NewDiskArtifactStore(dir)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := PrepareFig10(PrepareCtx{Scale: Demo, Seed: 3, Store: s1}); err != nil {
				t.Fatal(err)
			}
			ents, err := os.ReadDir(dir)
			if err != nil || len(ents) != 1 {
				t.Fatalf("expected one cache file, got %d (%v)", len(ents), err)
			}
			if err := os.WriteFile(filepath.Join(dir, ents[0].Name()), gobOf(t, entries[name]), 0o644); err != nil {
				t.Fatal(err)
			}
			s2, err := NewDiskArtifactStore(dir)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := PrepareFig10(PrepareCtx{Scale: Demo, Seed: 3, Store: s2}); err != nil {
				t.Fatalf("corrupt entry must rebuild, got %v", err)
			}
			if s2.Builds() != 1 || s2.DiskLoads() != 0 {
				t.Fatalf("corrupt entry: builds=%d loads=%d, want 1/0", s2.Builds(), s2.DiskLoads())
			}
		})
	}
}

// rigFileSize returns the size one persisted fig10 demo rig occupies, so
// cap tests can be phrased in "N entries" instead of guessed byte counts.
func rigFileSize(t *testing.T) int64 {
	t.Helper()
	dir := t.TempDir()
	s, err := NewDiskArtifactStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := PrepareFig10(PrepareCtx{Scale: Demo, Seed: 1, Store: s}); err != nil {
		t.Fatal(err)
	}
	ents, err := os.ReadDir(dir)
	if err != nil || len(ents) != 1 {
		t.Fatalf("expected one cache file, got %d (%v)", len(ents), err)
	}
	fi, err := ents[0].Info()
	if err != nil {
		t.Fatal(err)
	}
	return fi.Size()
}

// countRigFiles counts persisted entries in a store directory.
func countRigFiles(t *testing.T, dir string) int {
	t.Helper()
	matches, err := filepath.Glob(filepath.Join(dir, "*.rig.gob"))
	if err != nil {
		t.Fatal(err)
	}
	return len(matches)
}

// TestDiskStoreEvictsLRU: with a cap sized for two entries, building a
// third evicts the least-recently-used one — and "used" means used: an
// entry kept warm by loads survives over a colder, older-accessed one.
func TestDiskStoreEvictsLRU(t *testing.T) {
	one := rigFileSize(t)
	dir := t.TempDir()
	s, err := NewDiskArtifactStoreCapped(dir, 2*one+one/2)
	if err != nil {
		t.Fatal(err)
	}
	prep := func(st *ArtifactStore, seed int64) {
		t.Helper()
		if _, err := PrepareFig10(PrepareCtx{Scale: Demo, Seed: seed, Store: st}); err != nil {
			t.Fatal(err)
		}
	}
	prep(s, 1)
	time.Sleep(10 * time.Millisecond) // distinct timestamps for the LRU order
	prep(s, 2)
	time.Sleep(10 * time.Millisecond)

	// Touch seed 1 from a fresh store (a disk load), making seed 2 the LRU
	// entry despite being written later.
	s2, err := NewDiskArtifactStoreCapped(dir, 2*one+one/2)
	if err != nil {
		t.Fatal(err)
	}
	prep(s2, 1)
	if s2.DiskLoads() != 1 {
		t.Fatalf("touch load missed: loads=%d", s2.DiskLoads())
	}
	time.Sleep(10 * time.Millisecond)

	prep(s2, 3) // third entry: must evict exactly the LRU one (seed 2)
	if got := countRigFiles(t, dir); got != 2 {
		t.Fatalf("after eviction: %d entries on disk, want 2", got)
	}
	if s2.Evictions() != 1 {
		t.Fatalf("evictions=%d, want 1", s2.Evictions())
	}
	// Seeds 1 and 3 must still load from disk; seed 2 must rebuild.
	s3, err := NewDiskArtifactStoreCapped(dir, 2*one+one/2)
	if err != nil {
		t.Fatal(err)
	}
	prep(s3, 1)
	prep(s3, 3)
	if s3.Builds() != 0 || s3.DiskLoads() != 2 {
		t.Fatalf("survivors wrong: builds=%d loads=%d, want 0/2 (LRU entry evicted, not MRU)", s3.Builds(), s3.DiskLoads())
	}
	prep(s3, 2)
	if s3.Builds() != 1 {
		t.Fatalf("evicted entry served from disk: builds=%d, want 1", s3.Builds())
	}
}

// TestDiskStoreEvictionKeepsFreshBuild: a cap smaller than a single
// artifact must not evict the entry whose write triggered the pass — the
// build that just happened is by definition the most recently used.
func TestDiskStoreEvictionKeepsFreshBuild(t *testing.T) {
	dir := t.TempDir()
	s, err := NewDiskArtifactStoreCapped(dir, 1)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := PrepareFig10(PrepareCtx{Scale: Demo, Seed: 1, Store: s}); err != nil {
		t.Fatal(err)
	}
	if got := countRigFiles(t, dir); got != 1 {
		t.Fatalf("fresh build evicted by its own pass: %d entries, want 1", got)
	}
}

// TestDiskStoreEvictionNeverBreaksLoads: the in-flight safety property.
// Stores under a 1-byte cap evict aggressively on every build while
// concurrent single-flight loads race them across fresh store instances;
// every Prepare must still succeed with a usable artifact — an evicted
// or half-raced file degrades to a rebuild, never to an error.
func TestDiskStoreEvictionNeverBreaksLoads(t *testing.T) {
	dir := t.TempDir()
	var wg sync.WaitGroup
	errs := make(chan error, 64)
	for worker := 0; worker < 4; worker++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for round := 0; round < 3; round++ {
				// Each store instance models a separate client invocation
				// sharing the directory; seeds overlap so loads and evicting
				// builds hit the same entries.
				s, err := NewDiskArtifactStoreCapped(dir, 1)
				if err != nil {
					errs <- err
					return
				}
				for seed := int64(1); seed <= 2; seed++ {
					art, err := PrepareFig10(PrepareCtx{Scale: Demo, Seed: seed, Store: s})
					if err != nil {
						errs <- fmt.Errorf("seed %d: %w", seed, err)
						return
					}
					if art.Rigs["rig"] == nil {
						errs <- fmt.Errorf("seed %d: artifact missing rig", seed)
						return
					}
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

// TestDiskStoreCapPreservesHealing: the size cap must not change the
// corrupt-entry contract — garbage entries still rebuild and heal under
// an active cap.
func TestDiskStoreCapPreservesHealing(t *testing.T) {
	one := rigFileSize(t)
	dir := t.TempDir()
	s, err := NewDiskArtifactStoreCapped(dir, 4*one)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := PrepareFig10(PrepareCtx{Scale: Demo, Seed: 3, Store: s}); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, func() string {
		ents, _ := os.ReadDir(dir)
		return ents[0].Name()
	}())
	if err := os.WriteFile(path, []byte("not a gob"), 0o644); err != nil {
		t.Fatal(err)
	}
	s2, err := NewDiskArtifactStoreCapped(dir, 4*one)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := PrepareFig10(PrepareCtx{Scale: Demo, Seed: 3, Store: s2}); err != nil {
		t.Fatalf("corrupt entry under cap must rebuild, got %v", err)
	}
	if s2.Builds() != 1 {
		t.Fatalf("healing build count wrong: %d", s2.Builds())
	}
}

// TestDiskStoreDefenseVariantsDistinctFiles: two artifacts differing only
// in the defense tag must land in distinct disk entries.
func TestDiskStoreDefenseVariantsDistinctFiles(t *testing.T) {
	dir := t.TempDir()
	s, err := NewDiskArtifactStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	ctx := PrepareCtx{Scale: Demo, Seed: 5, Store: s}
	opts := machineOptions(Demo, 5)
	art := ctx.NewArtifact()
	if err := ctx.AddRigTagged(art, "plain", opts, ""); err != nil {
		t.Fatal(err)
	}
	if err := ctx.AddRigTagged(art, "coarse", opts, "timer-coarse-64"); err != nil {
		t.Fatal(err)
	}
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(ents) != 2 {
		t.Fatalf("expected 2 distinct cache files for tagged variants, got %d", len(ents))
	}
}
