// Package cache is the content-addressed result cache behind the cprd
// daemon. The daemon keeps three levels of it (see jobs.ResultCache):
//
//   - the design level stores completed optimization results under the
//     SHA-256 of the design's canonical encoding combined with a
//     normalized options fingerprint, so resubmitting an identical
//     design never re-runs the optimizer;
//   - the panel level stores per-panel pipeline artifacts under the
//     SHA-256 of one panel's canonical input encoding (see
//     pipeline.WritePanelInputs) combined with the solver fingerprint,
//     so an edited design that misses the design level still reuses
//     every panel the edit provably cannot affect;
//   - the route level stores per-region route artifacts under RouteKey,
//     so the same edit also reuses every routing region it cannot
//     affect.
//
// Every level is a *Cache: an LRU of decoded values bounded by entry
// count, safe for concurrent use, with hit/miss/eviction counters cheap
// enough to read on every /v1/stats request. A cache built by NewBacked
// sits in front of a content-addressed BlockSource (the exchange
// service): misses fall through to the block store and, through it, to
// peer daemons, and puts write blocks through.
package cache

import (
	"container/list"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"sync"
)

// Key derives the content address for one optimization request: the hex
// SHA-256 over the design's canonical-encoding hash and the normalized
// options fingerprint, separated by a newline. Clients may rely on this
// definition — the same design bytes plus the same fingerprint always map
// to the same key.
func Key(designHash, optionsFingerprint string) string {
	h := sha256.New()
	h.Write([]byte(designHash))
	h.Write([]byte{'\n'})
	h.Write([]byte(optionsFingerprint))
	return hex.EncodeToString(h.Sum(nil))
}

// PanelKey derives the content address for one panel's pipeline
// artifacts: the hex SHA-256 over a domain-separation tag, the panel's
// canonical input hash, and the solver fingerprint. The "panel\n" tag
// keeps the panel keyspace disjoint from design-level keys even if the
// two hash inputs ever collide in content.
func PanelKey(panelHash, solverFingerprint string) string {
	h := sha256.New()
	h.Write([]byte("panel\n"))
	h.Write([]byte(panelHash))
	h.Write([]byte{'\n'})
	h.Write([]byte(solverFingerprint))
	return hex.EncodeToString(h.Sum(nil))
}

// RouteKey derives the content address for one routing region's artifact:
// the hex SHA-256 over a domain-separation tag, the region's canonical
// input hash (see pipeline.WriteRegionInputs), and the router
// fingerprint. The "route\n" tag keeps the route keyspace disjoint from
// the design and panel keyspaces even if the hash inputs ever collide in
// content.
func RouteKey(regionHash, routerFingerprint string) string {
	h := sha256.New()
	h.Write([]byte("route\n"))
	h.Write([]byte(regionHash))
	h.Write([]byte{'\n'})
	h.Write([]byte(routerFingerprint))
	return hex.EncodeToString(h.Sum(nil))
}

// BlockSource is the slice of the exchange service a backed cache needs:
// resolve a block (locally then from peers), store one, and check local
// presence. Implemented by *exchange.Service; kept as an interface here
// so the cache package depends on nothing above it.
type BlockSource interface {
	GetBlock(ctx context.Context, key string) ([]byte, error)
	Put(key string, data []byte) error
	Has(key string) (bool, error)
}

// Stats is a point-in-time snapshot of the cache counters.
type Stats struct {
	Entries   int   `json:"entries"`
	Hits      int64 `json:"hits"`
	Misses    int64 `json:"misses"`
	Evictions int64 `json:"evictions"`
}

// HitRate is hits / (hits + misses), or 0 before any lookup.
func (s Stats) HitRate() float64 {
	total := s.Hits + s.Misses
	if total == 0 {
		return 0
	}
	return float64(s.Hits) / float64(total)
}

// Cache is a bounded LRU of decoded values keyed by content address,
// optionally in front of a block source (see NewBacked).
//
// Keyless values are structurally excluded: Put drops empty keys, and
// the encoder of a backed cache may reject a value whose own key field
// is empty (eco-fast artifacts), in which case the value stays
// memory-only — never stored, never served.
type Cache[V any] struct {
	mu        sync.Mutex
	cap       int
	ll        *list.List // front = most recently used
	items     map[string]*list.Element
	hits      int64
	misses    int64
	evictions int64

	// The block tier; src is nil on a memory-only cache. enc/dec
	// translate values to and from block bytes; keyOf extracts the
	// content key a decoded value claims to be for (nil skips the check,
	// for values that don't carry their key).
	src   BlockSource
	enc   func(V) ([]byte, error)
	dec   func([]byte) (V, error)
	keyOf func(V) string
}

type entry[V any] struct {
	key string
	val V
}

// New creates a memory-only cache holding at most capacity entries;
// capacity <= 0 selects the default of 1024.
func New[V any](capacity int) *Cache[V] {
	return NewBacked[V](capacity, nil, nil, nil, nil)
}

// NewBacked creates a cache whose memory tier holds at most capacity
// entries (<= 0 selects the default) in front of src; a nil src gives a
// memory-only cache, like New. keyOf may be nil (see Cache).
func NewBacked[V any](capacity int, src BlockSource, enc func(V) ([]byte, error),
	dec func([]byte) (V, error), keyOf func(V) string) *Cache[V] {
	if capacity <= 0 {
		capacity = 1024
	}
	return &Cache[V]{
		cap:   capacity,
		ll:    list.New(),
		items: make(map[string]*list.Element),
		src:   src,
		enc:   enc,
		dec:   dec,
		keyOf: keyOf,
	}
}

// Get resolves key through memory, promoting it on hit, then through the
// block source, whose lookup carries ctx (the job's trace and event
// plumbing for peer fetches, and its cancellation). A decoded block is
// re-cached in memory. A block that fails to decode — wrong codec
// version from a mixed-version peer, or a key mismatch — is a miss: the
// caller recomputes, which is always correct. Every Get counts as one
// hit or one miss, a block-served one as a hit.
func (c *Cache[V]) Get(ctx context.Context, key string) (V, bool) {
	c.mu.Lock()
	if el, ok := c.items[key]; ok {
		c.hits++
		c.ll.MoveToFront(el)
		v := el.Value.(*entry[V]).val
		c.mu.Unlock()
		return v, true
	}
	if c.src == nil || key == "" {
		c.misses++
		c.mu.Unlock()
		var zero V
		return zero, false
	}
	c.mu.Unlock()

	// The block source may fetch from peers over the network: never
	// under c.mu.
	v, ok := c.fetch(ctx, key)
	c.mu.Lock()
	defer c.mu.Unlock()
	if !ok {
		c.misses++
		return v, false
	}
	c.hits++
	c.putLocked(key, v)
	return v, true
}

// fetch resolves key from the block source and decodes it.
func (c *Cache[V]) fetch(ctx context.Context, key string) (V, bool) {
	var zero V
	data, err := c.src.GetBlock(ctx, key)
	if err != nil {
		return zero, false
	}
	v, err := c.dec(data)
	if err != nil {
		return zero, false
	}
	if c.keyOf != nil && c.keyOf(v) != key {
		// A peer served bytes whose decoded artifact claims a different
		// content address; do not splice it.
		return zero, false
	}
	return v, true
}

// Contains reports presence in memory or the local block store without
// touching the counters or LRU order. It never asks peers (the job
// manager probes with Contains before re-warming).
func (c *Cache[V]) Contains(key string) bool {
	c.mu.Lock()
	_, ok := c.items[key]
	c.mu.Unlock()
	if ok || c.src == nil {
		return ok
	}
	ok, err := c.src.Has(key)
	return err == nil && ok
}

// Put stores a value under a non-empty key, replacing any existing entry
// and evicting the least recently used entry when the capacity is
// exceeded. A backed cache also writes the value as a block when the
// encoder accepts it, making it durable (disk-backed stores) and
// servable to peers.
func (c *Cache[V]) Put(key string, val V) {
	if key == "" {
		return
	}
	c.mu.Lock()
	c.putLocked(key, val)
	c.mu.Unlock()
	if c.src == nil {
		return
	}
	data, err := c.enc(val)
	if err != nil {
		return
	}
	_ = c.src.Put(key, data)
}

func (c *Cache[V]) putLocked(key string, val V) {
	if el, ok := c.items[key]; ok {
		el.Value.(*entry[V]).val = val
		c.ll.MoveToFront(el)
		return
	}
	c.items[key] = c.ll.PushFront(&entry[V]{key: key, val: val})
	for c.ll.Len() > c.cap {
		oldest := c.ll.Back()
		c.ll.Remove(oldest)
		delete(c.items, oldest.Value.(*entry[V]).key)
		c.evictions++
	}
}

// Len returns the memory tier's entry count.
func (c *Cache[V]) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.ll.Len()
}

// Stats snapshots the counters.
func (c *Cache[V]) Stats() Stats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return Stats{
		Entries:   c.ll.Len(),
		Hits:      c.hits,
		Misses:    c.misses,
		Evictions: c.evictions,
	}
}
