package cache

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"testing"
)

func TestRouteKeyDomainSeparation(t *testing.T) {
	// The same hash/fingerprint pair must address different blocks at
	// each level: the tags keep the keyspaces disjoint.
	k1 := Key("hash", "fp")
	k2 := PanelKey("hash", "fp")
	k3 := RouteKey("hash", "fp")
	if k1 == k2 || k1 == k3 || k2 == k3 {
		t.Fatalf("keyspaces collide: %s %s %s", k1, k2, k3)
	}
	if RouteKey("hash", "fp") != k3 {
		t.Fatal("RouteKey is not stable")
	}
}

func TestThreeLevelIndependentAccounting(t *testing.T) {
	tl := NewThreeLevel[string, int, bool](2, 2, 2)
	tl.Design.Put("d1", "result")
	tl.Panel.Put("p1", 41)
	tl.Route.Put("r1", true)

	if _, ok := tl.Design.Get("d1"); !ok {
		t.Fatal("design level lost its entry")
	}
	if _, ok := tl.Panel.Get("missing"); ok {
		t.Fatal("panel level fabricated an entry")
	}
	if _, ok := tl.Route.Get("r1"); !ok {
		t.Fatal("route level lost its entry")
	}

	st := tl.Stats()
	if st.Design.Hits != 1 || st.Design.Misses != 0 {
		t.Fatalf("design stats = %+v", st.Design)
	}
	if st.Panel.Hits != 0 || st.Panel.Misses != 1 {
		t.Fatalf("panel stats = %+v", st.Panel)
	}
	if st.Route.Hits != 1 || st.Route.Misses != 0 {
		t.Fatalf("route stats = %+v", st.Route)
	}
	if st.Design.Entries != 1 || st.Panel.Entries != 1 || st.Route.Entries != 1 {
		t.Fatalf("entry counts = %d %d %d", st.Design.Entries, st.Panel.Entries, st.Route.Entries)
	}
}

// TestThreeLevelDefaultCapacities: non-positive capacities take the cache
// package default rather than creating an unbounded or zero-size level.
func TestThreeLevelDefaultCapacities(t *testing.T) {
	tl := NewThreeLevel[int, int, int](0, -1, 0)
	for i := 0; i < 1030; i++ {
		tl.Panel.Put(string(rune('a'+i%26))+string(rune('0'+i/26%10))+string(rune('A'+i/260)), i)
	}
	if n := tl.Panel.Len(); n > 1024 {
		t.Errorf("panel level grew to %d entries; default capacity not applied", n)
	}
	tl.Design.Put("k", 1)
	if tl.Design.Len() != 1 {
		t.Error("design level rejected an entry")
	}
	tl.Route.Put("r", 1)
	if tl.Route.Len() != 1 {
		t.Error("route level rejected an entry")
	}
}

func TestThreeLevelPerLevelEviction(t *testing.T) {
	tl := NewThreeLevel[string, string, string](1, 2, 3)
	for i := 0; i < 4; i++ {
		k := fmt.Sprintf("k%d", i)
		tl.Design.Put(k, k)
		tl.Panel.Put(k, k)
		tl.Route.Put(k, k)
	}
	st := tl.Stats()
	if st.Design.Entries != 1 || st.Design.Evictions != 3 {
		t.Fatalf("design after overflow = %+v", st.Design)
	}
	if st.Panel.Entries != 2 || st.Panel.Evictions != 2 {
		t.Fatalf("panel after overflow = %+v", st.Panel)
	}
	if st.Route.Entries != 3 || st.Route.Evictions != 1 {
		t.Fatalf("route after overflow = %+v", st.Route)
	}
	// Eviction in one level leaves the others untouched: k0 survives
	// where capacity allowed.
	if tl.Design.Contains("k0") {
		t.Fatal("design kept an entry beyond capacity")
	}
	if !tl.Route.Contains("k1") {
		t.Fatal("route evicted more than its overflow")
	}
}

func TestThreeLevelContainsCounterNeutral(t *testing.T) {
	tl := NewThreeLevel[string, int, bool](4, 4, 4)
	tl.Panel.Put("p", 7)
	for i := 0; i < 5; i++ {
		tl.Panel.Contains("p")
		tl.Panel.Contains("absent")
		tl.Design.Contains("absent")
		tl.Route.Contains("absent")
	}
	st := tl.Stats()
	if st.Design.Hits+st.Design.Misses+st.Panel.Hits+st.Panel.Misses+st.Route.Hits+st.Route.Misses != 0 {
		t.Fatalf("Contains touched counters: %+v", st)
	}
	// Contains must also not refresh recency: p becomes the LRU victim
	// even after the Contains probes above.
	small := NewThreeLevel[string, int, bool](4, 2, 4)
	small.Panel.Put("old", 1)
	small.Panel.Put("new", 2)
	small.Panel.Contains("old")
	small.Panel.Put("newest", 3)
	if small.Panel.Contains("old") {
		t.Fatal("Contains refreshed LRU recency")
	}
}

// memSource is an in-memory BlockSource with scriptable peer blocks.
type memSource struct {
	local map[string][]byte
	peer  map[string][]byte
	// peerFetches counts GetBlock calls that fell through to peer data.
	peerFetches int
}

func newMemSource() *memSource {
	return &memSource{local: map[string][]byte{}, peer: map[string][]byte{}}
}

func (s *memSource) GetBlock(_ context.Context, key string) ([]byte, error) {
	if d, ok := s.local[key]; ok {
		return d, nil
	}
	if d, ok := s.peer[key]; ok {
		s.peerFetches++
		s.local[key] = d // write-through, as the exchange service does
		return d, nil
	}
	return nil, errors.New("not found")
}

func (s *memSource) Put(key string, data []byte) error {
	s.local[key] = append([]byte(nil), data...)
	return nil
}

func (s *memSource) Has(key string) (bool, error) {
	_, ok := s.local[key]
	return ok, nil
}

// strCodec encodes "key\x00payload" so decoded values carry their key.
func strEnc(v string) ([]byte, error) {
	if strings.HasPrefix(v, "keyless") {
		return nil, errors.New("keyless value")
	}
	return []byte(v), nil
}

func strDec(data []byte) (string, error) {
	if strings.HasPrefix(string(data), "corrupt") {
		return "", errors.New("corrupt block")
	}
	return string(data), nil
}

func TestBackedLevelFallsThroughToSource(t *testing.T) {
	src := newMemSource()
	b := NewBacked[string](2, src, strEnc, strDec, nil)

	// Memory miss, local block hit.
	src.local["k1"] = []byte("from-store")
	if v, ok := b.Get("k1"); !ok || v != "from-store" {
		t.Fatalf("Get(k1) = %q, %v", v, ok)
	}
	// Now cached in memory: stats show one (reclassified) hit so far.
	if st := b.Stats(); st.Hits != 1 || st.Misses != 0 {
		t.Fatalf("stats after store hit = %+v", st)
	}
	if v, ok := b.Get("k1"); !ok || v != "from-store" {
		t.Fatalf("second Get(k1) = %q, %v", v, ok)
	}
	if st := b.Stats(); st.Hits != 2 || st.Misses != 0 {
		t.Fatalf("stats after memory hit = %+v", st)
	}

	// Memory+local miss, peer hit.
	src.peer["k2"] = []byte("from-peer")
	if v, ok := b.Get("k2"); !ok || v != "from-peer" {
		t.Fatalf("Get(k2) = %q, %v", v, ok)
	}
	if src.peerFetches != 1 {
		t.Fatalf("peer fetches = %d, want 1", src.peerFetches)
	}

	// Total miss.
	if _, ok := b.Get("k3"); ok {
		t.Fatal("Get(k3) fabricated a value")
	}
	if st := b.Stats(); st.Hits != 3 || st.Misses != 1 {
		t.Fatalf("final stats = %+v", st)
	}
}

func TestBackedPutWritesBothTiers(t *testing.T) {
	src := newMemSource()
	b := NewBacked[string](2, src, strEnc, strDec, nil)
	b.Put("k", "value")
	if string(src.local["k"]) != "value" {
		t.Fatal("Put did not reach the block source")
	}
	// Evict from memory; the value must come back from the store.
	b.Put("k2", "v2")
	b.Put("k3", "v3")
	if b.mem.Contains("k") {
		t.Fatal("test setup: k should be evicted from memory")
	}
	if v, ok := b.Get("k"); !ok || v != "value" {
		t.Fatalf("Get after memory eviction = %q, %v", v, ok)
	}
}

func TestBackedKeylessValuesStayMemoryOnly(t *testing.T) {
	src := newMemSource()
	b := NewBacked[string](4, src, strEnc, strDec, nil)
	b.Put("", "anything")
	if b.Len() != 0 || len(src.local) != 0 {
		t.Fatal("empty key was stored")
	}
	// The encoder rejects "keyless*" values: memory-only.
	b.Put("k", "keyless-artifact")
	if len(src.local) != 0 {
		t.Fatal("encoder-rejected value reached the block source")
	}
	if v, ok := b.Get("k"); !ok || v != "keyless-artifact" {
		t.Fatalf("memory tier lost the keyless value: %q, %v", v, ok)
	}
}

func TestBackedRejectsCorruptAndMismatchedBlocks(t *testing.T) {
	src := newMemSource()
	src.local["bad"] = []byte("corrupt-bytes")
	b := NewBacked[string](4, src, strEnc, strDec, nil)
	if _, ok := b.Get("bad"); ok {
		t.Fatal("corrupt block was decoded into a hit")
	}

	// keyOf mismatch: decoded value claims a different key.
	keyed := NewBacked[string](4, src, strEnc, strDec, func(v string) string { return "expected" })
	src.local["other"] = []byte("value-claiming-expected")
	if _, ok := keyed.Get("other"); ok {
		t.Fatal("key-mismatched block was spliced")
	}
	if v, ok := keyed.Get("expected"); ok && v == "" {
		t.Fatal("unexpected empty hit")
	}
}

func TestBackedContainsChecksLocalOnly(t *testing.T) {
	src := newMemSource()
	b := NewBacked[string](4, src, strEnc, strDec, nil)
	src.local["loc"] = []byte("x")
	src.peer["far"] = []byte("y")
	if !b.Contains("loc") {
		t.Fatal("Contains missed a local block")
	}
	if b.Contains("far") {
		t.Fatal("Contains consulted peers")
	}
	if src.peerFetches != 0 {
		t.Fatal("Contains triggered a peer fetch")
	}
	if st := b.Stats(); st.Hits+st.Misses != 0 {
		t.Fatalf("Contains touched counters: %+v", st)
	}
}

func TestBackedSatisfiesLevel(t *testing.T) {
	var _ Level[string] = NewBacked[string](1, newMemSource(), strEnc, strDec, nil)
	var _ Level[string] = New[string](1)
}
