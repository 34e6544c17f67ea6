// Package detector implements the three unsupervised outlier detectors of
// the paper's testbed (Section 2.1): the density-based Local Outlier Factor
// (LOF), the angle-based Fast ABOD, and the isolation-based Isolation
// Forest — plus a repetition-averaging wrapper and a score cache that
// memoises per-subspace scores across explainers.
//
// All detectors return scores where higher means more outlying, as required
// by the core.Detector contract, and observe their context between points
// so per-cell deadlines and SIGINT cancellation propagate into the hottest
// scoring loops.
package detector

import (
	"container/list"
	"context"
	"errors"
	"fmt"
	"sync"

	"anex/internal/core"
	"anex/internal/dataset"
	"anex/internal/failpoint"
	"anex/internal/stats"
)

// DefaultCacheBytes is the generous default byte budget of a Cached
// detector's score memo: large enough that the paper's testbeds never
// evict, small enough that a stage-1 Beam sweep over a 100d dataset
// (C(100,2) = 4950 score vectors) cannot grow without bound when datasets
// get big.
const DefaultCacheBytes = 256 << 20 // 256 MiB

// cacheEntryOverhead approximates the fixed per-entry cost charged against
// the byte budget on top of the score payload: the map cell, the LRU list
// element, and the slice header.
const cacheEntryOverhead = 96

// SiteMemoPublish is the failpoint site guarding score-memo publication:
// an armed error action makes the singleflight leader fail before any
// detector work, releasing its waiters with the injected error through
// the same path a real scoring failure takes.
const SiteMemoPublish = "memo.publish"

// Cached wraps a detector with a subspace-keyed memo. Pipelines score the
// same subspaces repeatedly — e.g. Beam and LookOut both score every 2d
// subspace of a dataset — so the cache collapses that duplicated work. It is
// safe for concurrent use, and concurrent misses on the same key are
// deduplicated singleflight-style: one caller computes while the others
// wait for its result, so a subspace is never scored twice no matter how
// many pipeline workers race on it.
//
// The memo is bounded by a byte budget (DefaultCacheBytes unless overridden
// via NewCachedBudget): entries are charged for their score payload plus a
// small fixed overhead, and inserting past the budget evicts
// least-recently-used entries until the cache fits again. An evicted key
// that is requested later is simply recomputed — again singleflight-style,
// so concurrent refetches still score exactly once.
//
// Fault containment: a leader whose inner computation panics releases its
// waiters with an ERROR describing the crash (never a cascading re-panic in
// their goroutines) while the panic itself continues up the leader's own
// stack, where the pipeline's cell isolation converts it into that cell's
// Result.Err. A leader that fails because its OWN context was cancelled
// does not poison waiters either: waiters whose contexts are still live
// simply retry, electing a new leader.
type Cached struct {
	inner    core.Detector
	maxBytes int64

	mu        sync.Mutex
	entries   map[string]*list.Element // of *cacheEntry
	lru       list.List                // front = most recently used
	bytes     int64
	inflight  map[string]*inflightCall
	hits      int
	calls     int
	evictions int
}

// cacheEntry is one memoised score vector, resident in the LRU list,
// together with the population moments of its distribution — memoised so
// that Z-score standardisation of a cached subspace is O(1) instead of a
// fresh O(n) pass per (point, subspace) lookup.
type cacheEntry struct {
	key      string
	scores   []float64
	mean     float64
	variance float64
}

// entryBytes is the budget charge of one memo entry.
func entryBytes(key string, scores []float64) int64 {
	return int64(len(scores))*8 + int64(len(key)) + cacheEntryOverhead
}

// inflightCall is one in-progress inner computation that concurrent callers
// of the same key wait on.
type inflightCall struct {
	done   chan struct{}
	scores []float64
	err    error // non-nil when the leader failed (error or panic)
}

// NewCached wraps d with a score memo keyed by (dataset identity,
// subspace): View.SourceKey embeds the dataset's process-unique ID, so two
// datasets that share a name never share scores. The memo holds at most
// DefaultCacheBytes of scores; use NewCachedBudget to tune the bound.
func NewCached(d core.Detector) *Cached {
	return NewCachedBudget(d, DefaultCacheBytes)
}

// NewCachedBudget is NewCached with an explicit byte budget for the score
// memo; maxBytes ≤ 0 selects DefaultCacheBytes. A budget smaller than a
// single score vector still works — every insert immediately evicts, so the
// cache degrades to pure singleflight deduplication.
func NewCachedBudget(d core.Detector, maxBytes int64) *Cached {
	if maxBytes <= 0 {
		maxBytes = DefaultCacheBytes
	}
	return &Cached{
		inner:    d,
		maxBytes: maxBytes,
		entries:  make(map[string]*list.Element),
		inflight: make(map[string]*inflightCall),
	}
}

// Name returns the wrapped detector's name.
func (c *Cached) Name() string { return c.inner.Name() }

// Inner returns the wrapped detector. The stream monitor uses it to reach
// a WindowScorer through the memo wrapper: window datasets carry fresh
// process-unique names, so the memo never hits on them anyway, and the
// incremental path's own score reuse subsumes it.
func (c *Cached) Inner() core.Detector { return c.inner }

// Scores returns memoised scores for the view's subspace, computing them on
// first access. The returned slice is shared; callers must not mutate it.
// When several goroutines miss on the same key simultaneously, exactly one
// runs the inner detector and the rest block until it finishes — a waiter
// counts as a hit, since it triggers no inner work. A waiter also unblocks
// when its own ctx is cancelled, returning ctx's error without waiting for
// the leader.
func (c *Cached) Scores(ctx context.Context, v *dataset.View) ([]float64, error) {
	key := v.SourceKey() + "|" + v.SubspaceKey()
	c.mu.Lock()
	c.calls++
	c.mu.Unlock()
	for {
		c.mu.Lock()
		if el, ok := c.entries[key]; ok {
			c.hits++
			c.lru.MoveToFront(el)
			s := el.Value.(*cacheEntry).scores
			c.mu.Unlock()
			return s, nil
		}
		if call, ok := c.inflight[key]; ok {
			c.mu.Unlock()
			select {
			case <-call.done:
			case <-ctx.Done():
				return nil, ctx.Err()
			}
			if call.err != nil {
				// A leader cancelled by ITS context must not fail waiters
				// whose contexts are still live: retry (becoming the new
				// leader or finding a published memo).
				if errors.Is(call.err, context.Canceled) || errors.Is(call.err, context.DeadlineExceeded) {
					if err := ctx.Err(); err != nil {
						return nil, err
					}
					continue
				}
				return nil, call.err
			}
			c.mu.Lock()
			c.hits++
			c.mu.Unlock()
			return call.scores, nil
		}
		call := &inflightCall{done: make(chan struct{})}
		c.inflight[key] = call
		c.mu.Unlock()
		return c.lead(ctx, v, key, call)
	}
}

// lead runs the inner detector as the key's singleflight leader and
// publishes the outcome to waiters. A panicking inner detector surfaces to
// waiters as an error; the panic itself continues up the leader's stack.
func (c *Cached) lead(ctx context.Context, v *dataset.View, key string, call *inflightCall) ([]float64, error) {
	completed := false
	if ferr := failpoint.Eval(SiteMemoPublish); ferr != nil {
		completed = true
		call.err = ferr
		c.mu.Lock()
		delete(c.inflight, key)
		c.mu.Unlock()
		close(call.done)
		return nil, ferr
	}
	defer func() {
		if !completed {
			// inner.Scores panicked. Record an error for the waiters —
			// re-panicking in THEIR goroutines would crash call sites that
			// never touched the faulty computation — and let the panic
			// continue through this (the leader's) stack.
			call.err = fmt.Errorf("detector: concurrent %s computation for %q panicked in its leader", c.inner.Name(), key)
		}
		c.mu.Lock()
		if call.err == nil {
			c.insert(key, call.scores)
		}
		delete(c.inflight, key)
		c.mu.Unlock()
		close(call.done)
	}()
	call.scores, call.err = c.inner.Scores(ctx, v)
	completed = true
	return call.scores, call.err
}

// insert publishes a freshly computed score vector into the LRU memo and
// evicts from the cold end until the byte budget holds again. Called with
// c.mu held. If the new entry alone exceeds the budget it is evicted
// immediately — the budget is a hard bound, and the caller still returns
// the scores it holds in hand.
func (c *Cached) insert(key string, scores []float64) {
	if el, ok := c.entries[key]; ok {
		// A racing Reset dropped the inflight map while this leader ran and
		// another leader already republished: keep the resident entry.
		c.lru.MoveToFront(el)
		return
	}
	mean, variance := stats.PopulationMeanVariance(scores)
	c.bytes += entryBytes(key, scores)
	c.entries[key] = c.lru.PushFront(&cacheEntry{key: key, scores: scores, mean: mean, variance: variance})
	for c.bytes > c.maxBytes && c.lru.Len() > 0 {
		cold := c.lru.Back()
		e := cold.Value.(*cacheEntry)
		c.lru.Remove(cold)
		delete(c.entries, e.key)
		c.bytes -= entryBytes(e.key, e.scores)
		c.evictions++
	}
}

// ScoresWithStats returns memoised scores plus the population moments of
// their distribution (core.StatScorer). On a cache hit the moments come
// straight from the entry; after a miss (or an eviction race) they are
// computed with the same stats.PopulationMeanVariance pass the memo uses,
// so both paths are bit-identical to standardising the scores directly.
func (c *Cached) ScoresWithStats(ctx context.Context, v *dataset.View) (scores []float64, mean, variance float64, err error) {
	scores, err = c.Scores(ctx, v)
	if err != nil {
		return nil, 0, 0, err
	}
	key := v.SourceKey() + "|" + v.SubspaceKey()
	c.mu.Lock()
	if el, ok := c.entries[key]; ok {
		e := el.Value.(*cacheEntry)
		// The entry can only be this call's result: keys are immutable and
		// Scores just returned for this key.
		mean, variance = e.mean, e.variance
		c.mu.Unlock()
		return scores, mean, variance, nil
	}
	c.mu.Unlock()
	mean, variance = stats.PopulationMeanVariance(scores)
	return scores, mean, variance, nil
}

// Stats returns cache calls and hits since construction. A call that waited
// on another goroutine's in-flight computation counts as a hit: N
// concurrent first accesses to one key yield 1 inner call and N−1 hits.
func (c *Cached) Stats() (calls, hits int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.calls, c.hits
}

// CacheStats is a point-in-time snapshot of a Cached detector's memo.
type CacheStats struct {
	// Calls and Hits mirror Stats.
	Calls, Hits int
	// Evictions counts entries dropped to honour the byte budget.
	Evictions int
	// Entries is the number of resident score vectors.
	Entries int
	// ResidentBytes is the budget charge of the resident entries; it never
	// exceeds MaxBytes.
	ResidentBytes int64
	// MaxBytes is the configured budget.
	MaxBytes int64
}

// CacheStats returns the full cache counters, including the eviction count
// and resident byte footprint of the LRU memo.
func (c *Cached) CacheStats() CacheStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return CacheStats{
		Calls:         c.calls,
		Hits:          c.hits,
		Evictions:     c.evictions,
		Entries:       c.lru.Len(),
		ResidentBytes: c.bytes,
		MaxBytes:      c.maxBytes,
	}
}

// Forget drops every memoised score vector of the dataset with the given
// SourceKey. Owners of short-lived datasets — the stream monitor's windows
// — call it when a dataset dies to release its entries eagerly instead of
// waiting for LRU pressure. Computations in flight publish after Forget
// returns and die with the next Forget (or under the byte budget).
func (c *Cached) Forget(sourceKey string) {
	if sourceKey == "" {
		return
	}
	prefix := sourceKey + "|"
	c.mu.Lock()
	defer c.mu.Unlock()
	for key, el := range c.entries {
		if len(key) >= len(prefix) && key[:len(prefix)] == prefix {
			e := el.Value.(*cacheEntry)
			c.lru.Remove(el)
			delete(c.entries, key)
			c.bytes -= entryBytes(e.key, e.scores)
		}
	}
}

// Reset drops all memoised scores. Computations in flight at reset time
// complete and publish into the fresh memo.
func (c *Cached) Reset() {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.entries = make(map[string]*list.Element)
	c.lru.Init()
	c.bytes = 0
	c.calls, c.hits, c.evictions = 0, 0, 0
}

var _ core.Detector = (*Cached)(nil)

// checkView validates the common Scores preconditions.
func checkView(name string, v *dataset.View) error {
	if v == nil || v.N() == 0 {
		return fmt.Errorf("%s: empty view", name)
	}
	if v.Dim() == 0 {
		return fmt.Errorf("%s: zero-dimensional view", name)
	}
	return nil
}
