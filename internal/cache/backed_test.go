package cache

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync"
	"testing"
)

// inMemory reports whether key is in c's memory tier, bypassing the
// block source, the counters and recency.
func inMemory[V any](c *Cache[V], key string) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	_, ok := c.items[key]
	return ok
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
	ctx := context.Background()
	src := newMemSource()
	b := NewBacked[string](2, src, strEnc, strDec, nil)

	// Memory miss, local block hit.
	src.local["k1"] = []byte("from-store")
	if v, ok := b.Get(ctx, "k1"); !ok || v != "from-store" {
		t.Fatalf("Get(k1) = %q, %v", v, ok)
	}
	// Now cached in memory: stats show one (reclassified) hit so far.
	if st := b.Stats(); st.Hits != 1 || st.Misses != 0 {
		t.Fatalf("stats after store hit = %+v", st)
	}
	if v, ok := b.Get(ctx, "k1"); !ok || v != "from-store" {
		t.Fatalf("second Get(k1) = %q, %v", v, ok)
	}
	if st := b.Stats(); st.Hits != 2 || st.Misses != 0 {
		t.Fatalf("stats after memory hit = %+v", st)
	}

	// Memory+local miss, peer hit.
	src.peer["k2"] = []byte("from-peer")
	if v, ok := b.Get(ctx, "k2"); !ok || v != "from-peer" {
		t.Fatalf("Get(k2) = %q, %v", v, ok)
	}
	if src.peerFetches != 1 {
		t.Fatalf("peer fetches = %d, want 1", src.peerFetches)
	}

	// Total miss.
	if _, ok := b.Get(ctx, "k3"); ok {
		t.Fatal("Get(k3) fabricated a value")
	}
	if st := b.Stats(); st.Hits != 3 || st.Misses != 1 {
		t.Fatalf("final stats = %+v", st)
	}
}

func TestBackedPutWritesBothTiers(t *testing.T) {
	ctx := context.Background()
	src := newMemSource()
	b := NewBacked[string](2, src, strEnc, strDec, nil)
	b.Put("k", "value")
	if string(src.local["k"]) != "value" {
		t.Fatal("Put did not reach the block source")
	}
	// Evict from memory; the value must come back from the store.
	b.Put("k2", "v2")
	b.Put("k3", "v3")
	if inMemory(b, "k") {
		t.Fatal("test setup: k should be evicted from memory")
	}
	if v, ok := b.Get(ctx, "k"); !ok || v != "value" {
		t.Fatalf("Get after memory eviction = %q, %v", v, ok)
	}
}

func TestBackedKeylessValuesStayMemoryOnly(t *testing.T) {
	ctx := context.Background()
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
	if v, ok := b.Get(ctx, "k"); !ok || v != "keyless-artifact" {
		t.Fatalf("memory tier lost the keyless value: %q, %v", v, ok)
	}
}

func TestBackedRejectsCorruptAndMismatchedBlocks(t *testing.T) {
	ctx := context.Background()
	src := newMemSource()
	src.local["bad"] = []byte("corrupt-bytes")
	b := NewBacked[string](4, src, strEnc, strDec, nil)
	if _, ok := b.Get(ctx, "bad"); ok {
		t.Fatal("corrupt block was decoded into a hit")
	}

	// keyOf mismatch: decoded value claims a different key.
	keyed := NewBacked[string](4, src, strEnc, strDec, func(v string) string { return "expected" })
	src.local["other"] = []byte("value-claiming-expected")
	if _, ok := keyed.Get(ctx, "other"); ok {
		t.Fatal("key-mismatched block was spliced")
	}
	if v, ok := keyed.Get(ctx, "expected"); ok && v == "" {
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

// TestBackedNilSourceIsMemoryOnly: NewBacked with a nil source behaves
// like New — the codecs are never called.
func TestBackedNilSourceIsMemoryOnly(t *testing.T) {
	fail := func(string) ([]byte, error) { panic("encoder called") }
	c := NewBacked[string](2, nil, fail, nil, nil)
	c.Put("k", "v")
	if v, ok := c.Get(context.Background(), "k"); !ok || v != "v" {
		t.Fatalf("Get(k) = %q, %v", v, ok)
	}
	if _, ok := c.Get(context.Background(), "absent"); ok || c.Contains("absent") {
		t.Fatal("nil-source cache fabricated an entry")
	}
	if st := c.Stats(); st.Hits != 1 || st.Misses != 1 {
		t.Fatalf("stats = %+v, want 1 hit, 1 miss", st)
	}
}

// lockProbe is a BlockSource that records whether the cache's mutex was
// held when the source was called and which context reached GetBlock.
type lockProbe struct {
	*memSource
	c      *Cache[string]
	held   []string
	gotCtx context.Context
}

func (p *lockProbe) probe(op string) {
	if !p.c.mu.TryLock() {
		p.held = append(p.held, op)
		return
	}
	p.c.mu.Unlock()
}

func (p *lockProbe) GetBlock(ctx context.Context, key string) ([]byte, error) {
	p.probe("GetBlock")
	p.gotCtx = ctx
	return p.memSource.GetBlock(ctx, key)
}

func (p *lockProbe) Put(key string, data []byte) error {
	p.probe("Put")
	return p.memSource.Put(key, data)
}

func (p *lockProbe) Has(key string) (bool, error) {
	p.probe("Has")
	return p.memSource.Has(key)
}

// TestBackedSourceCalledOffLock: the block source may block on peer
// HTTP, so every call into it runs with the cache mutex released, and
// Get hands the caller's context to the fetch.
func TestBackedSourceCalledOffLock(t *testing.T) {
	p := &lockProbe{memSource: newMemSource()}
	c := NewBacked[string](4, p, strEnc, strDec, nil)
	p.c = c
	p.peer["far"] = []byte("remote")
	type ctxKey struct{}
	ctx := context.WithValue(context.Background(), ctxKey{}, "job")

	c.Put("k", "v")
	c.Contains("local-miss")
	if v, ok := c.Get(ctx, "far"); !ok || v != "remote" {
		t.Fatalf("Get(far) = %q, %v", v, ok)
	}
	c.Get(ctx, "absent")
	if len(p.held) != 0 {
		t.Fatalf("block source called under the cache mutex: %v", p.held)
	}
	if p.gotCtx == nil || p.gotCtx.Value(ctxKey{}) != "job" {
		t.Fatal("Get did not pass the caller's context to GetBlock")
	}
}

// syncSource makes memSource safe for the concurrent test below.
type syncSource struct {
	mu sync.Mutex
	*memSource
}

func (s *syncSource) GetBlock(ctx context.Context, key string) ([]byte, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.memSource.GetBlock(ctx, key)
}

func (s *syncSource) Put(key string, data []byte) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.memSource.Put(key, data)
}

func (s *syncSource) Has(key string) (bool, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.memSource.Has(key)
}

// TestBackedConcurrentAccounting: under concurrent Gets, Puts and
// Contains probes, every Get still counts as exactly one hit or miss.
func TestBackedConcurrentAccounting(t *testing.T) {
	src := &syncSource{memSource: newMemSource()}
	for i := 0; i < 8; i++ {
		src.peer[fmt.Sprintf("p%d", i)] = []byte(fmt.Sprintf("peer-%d", i))
	}
	c := NewBacked[string](4, src, strEnc, strDec, nil)
	const workers, gets = 8, 200
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < gets; i++ {
				c.Get(context.Background(), fmt.Sprintf("p%d", (w+i)%12))
				c.Put(fmt.Sprintf("m%d", i%6), "v")
				c.Contains(fmt.Sprintf("p%d", i%12))
			}
		}(w)
	}
	wg.Wait()
	st := c.Stats()
	if st.Hits+st.Misses != workers*gets {
		t.Fatalf("hits %d + misses %d != %d Gets", st.Hits, st.Misses, workers*gets)
	}
	if st.Entries > 4 {
		t.Fatalf("memory tier holds %d entries, over its capacity of 4", st.Entries)
	}
}
