package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"sync"
	"sync/atomic"
	"time"

	"anex/internal/client"
	"anex/internal/dataset"
	"anex/internal/durable"
	"anex/internal/neighbors"
	"anex/internal/server"
	"anex/internal/synth"
)

// serve-mix: an in-process anexd built with the constructors cmd/anexd
// uses (server.NewEngine, durable.Open on a scratch data dir, server.New,
// a loopback http.Server), driven closed-loop through internal/client by
// serveClients() clients. The traffic is a seeded, skewed mix of explains
// (lof/abod × beam/refout/lookout/hics × dims) over small synthetic
// tenants and one wide 569×30 tenant, with registrations beside it: some
// replace a tenant's payload (WAL append + fsync + cache release), some
// re-register an identical payload (a no-op). iForest is left out: a cold
// paper-default iForest request costs tens of seconds. It is the only
// workload that exercises admission, HTTP/JSON, durable writes beside
// reads and the score memo under churn, and the wide tenant's RefOut pool
// reaches the landmark and quantized kNN tiers.

// serveClients is the closed loop's client count: at most two, and at
// most one per hardware thread.
func serveClients() int { return min(2, runtime.NumCPU()) }

const (
	serveCycle  = 80  // ops per traffic cycle
	serveCycles = 400 // cycles generated; a run wraps around
	serveZipfS  = 1.3
)

// serveTenant is one tenant with its payload versions.
type serveTenant struct {
	name     string
	versions [][]byte
	n, d     int
	outliers [][]int // per version
}

// serveOp is one request of the traffic.
type serveOp struct {
	register bool
	tenant   int
	version  int // register: the payload to send
	algo     string
	det      string
	dim      int
}

type serveWorkload struct {
	seed    int64
	orc     *oracle
	tenants []*serveTenant
	ops     []serveOp

	order   sync.Mutex   // serialises taking ops and their barrier turns
	next    int          // the next op, guarded by order
	barrier sync.RWMutex // registrations exclusive, explains shared

	dir     string
	store   *durable.Store
	srv     *server.Server
	httpSrv *http.Server
	served  chan error
	handler *tracedHandler
	rt      *countingTransport
	cl      *client.Client

	mu      sync.Mutex
	version []int // current payload version per tenant, as registered
	epoch   []int // replacements seen per tenant
	seen    map[string]bool
	calls   int64 // client calls made, for the retry count
}

func guardServeMix(v map[string]float64) error {
	if v["knn.prune.scan_fraction"] >= 1 {
		return guardf("serve-mix never reached the landmark tier (scan fraction %v)", v["knn.prune.scan_fraction"])
	}
	if v["durable.appends"] <= 0 {
		return guardf("serve-mix made no durable appends")
	}
	return nil
}

func buildServeMix(ctx context.Context, seed int64, orc *oracle) (workload, map[string]float64, error) {
	s := &serveWorkload{seed: seed, orc: orc, seen: map[string]bool{}}
	if err := s.makeTenants(); err != nil {
		return nil, nil, err
	}
	s.makeTraffic()
	if err := s.start(); err != nil {
		s.close()
		return nil, nil, err
	}
	var err error
	do(ctx, func(ctx context.Context) {
		for _, t := range s.tenants {
			if _, err = s.cl.Register(ctx, t.name, t.versions[0], true); err != nil {
				return
			}
			s.calls++
			s.version = append(s.version, 0)
			s.epoch = append(s.epoch, 0)
		}
	}, labelLayer, "client")
	if err != nil {
		s.close()
		return nil, nil, fmt.Errorf("initial registration: %w", err)
	}
	return s, nil, nil
}

// makeTenants generates four small synthetic tenants and one wide one,
// the small ones in two payload versions and the wide one in four (its
// cold requests dominate a cycle, so more versions average out how the
// seed's data favours the kNN tiers).
func (s *serveWorkload) makeTenants() error {
	for i := 0; i < 4; i++ {
		t := &serveTenant{name: fmt.Sprintf("tenant-%d", i)}
		for v := 0; v < 2; v++ {
			ds, gt, err := synth.GenerateSubspaceOutliers(synth.SubspaceConfig{
				Name: t.name, TotalDims: 10, N: 250, OutliersPerSubspace: 4,
				SubspaceDims: []int{2, 3}, Seed: s.seed*100 + int64(10*i+v),
			})
			if err != nil {
				return err
			}
			if err := t.addVersion(ds, gt.Outliers()); err != nil {
				return err
			}
		}
		s.tenants = append(s.tenants, t)
	}
	wide := &serveTenant{name: "wide"}
	for v := 0; v < 4; v++ {
		ds, outliers, err := synth.GenerateFullSpaceOutliers(synth.FullSpaceConfig{
			N: 569, D: 30, NumOutliers: 57, Seed: s.seed*100 + int64(90+v),
		})
		if err != nil {
			return err
		}
		if err := wide.addVersion(ds, outliers); err != nil {
			return err
		}
	}
	s.tenants = append(s.tenants, wide)
	return nil
}

func (t *serveTenant) addVersion(ds *dataset.Dataset, outliers []int) error {
	var buf bytes.Buffer
	if err := ds.WriteCSV(&buf); err != nil {
		return err
	}
	if len(outliers) < 6 {
		return fmt.Errorf("tenant %s: %d outliers, want at least 6", t.name, len(outliers))
	}
	t.versions = append(t.versions, buf.Bytes())
	t.n, t.d = ds.N(), ds.D()
	t.outliers = append(t.outliers, outliers)
	return nil
}

// points returns the request's rows: two outliers for a point explainer,
// six for a summary.
func (t *serveTenant) points(version int, summary bool) []int {
	if summary {
		return t.outliers[version][:6]
	}
	return t.outliers[version][:2]
}

// makeTraffic generates the op sequence, cycle by cycle, so that every
// cycle does about the same work whatever the seed. A cycle replaces the
// wide tenant and one small tenant (in rotation), re-registers a random
// tenant with its current payload, and then issues, in seeded order, the
// cold requests (every key of the replaced small tenant, and the wide
// tenant's RefOut/LOF key) among warm ones: repeats, drawn from a Zipf law
// over a ranking of the keys, of those of the small tenants that were
// computed since their last replacement. The ranking's order of request
// classes is fixed (2d before 3d, LOF before ABOD, then Beam, LookOut,
// RefOut, HiCS), since a warm HiCS request still pays its Monte-Carlo
// contrast search and would otherwise swing the median with the seed. The
// seed picks the data, the tenants within each class, and the order of a
// cycle's requests; the shape of a cycle is fixed.
func (s *serveWorkload) makeTraffic() {
	rng := rand.New(rand.NewSource(s.seed))
	wide := len(s.tenants) - 1
	keys := make([][]serveOp, wide) // per small tenant
	var ranked []serveOp
	for _, dim := range []int{2, 3} {
		for _, det := range []string{"lof", "abod"} {
			for _, algo := range []string{"beam", "lookout", "refout", "hics"} {
				for _, ti := range rng.Perm(wide) {
					k := serveOp{tenant: ti, algo: algo, det: det, dim: dim}
					keys[ti] = append(keys[ti], k)
					ranked = append(ranked, k)
				}
			}
		}
	}
	version := make([]int, len(s.tenants))
	warm := make([]bool, wide)
	for c := 0; c < serveCycles; c++ {
		r := c % wide
		version[wide] = (version[wide] + 1) % len(s.tenants[wide].versions)
		version[r] ^= 1
		warm[r] = false
		again := rng.Intn(len(s.tenants))
		cycle := []serveOp{
			{register: true, tenant: wide, version: version[wide]},
			{register: true, tenant: r, version: version[r]},
			{register: true, tenant: again, version: version[again]},
		}
		body := append([]serveOp{{tenant: wide, algo: "refout", det: "lof", dim: 2}}, keys[r]...)
		var pool []serveOp
		for _, k := range ranked {
			if warm[k.tenant] {
				pool = append(pool, k)
			}
		}
		if len(pool) > 0 {
			zipf := rand.NewZipf(rng, serveZipfS, 1, uint64(len(pool)-1))
			for len(cycle)+len(body) < serveCycle {
				body = append(body, pool[zipf.Uint64()])
			}
		}
		rng.Shuffle(len(body), func(i, j int) { body[i], body[j] = body[j], body[i] })
		s.ops = append(s.ops, append(cycle, body...)...)
		warm[r] = true
	}
}

// start brings the server up the way cmd/anexd does, on a loopback port
// and a scratch data dir inside the working directory.
func (s *serveWorkload) start() error {
	if err := os.MkdirAll(filepath.Join(".bench_build", "tmp"), 0o755); err != nil {
		return err
	}
	dir, err := os.MkdirTemp(filepath.Join(".bench_build", "tmp"), "serve-mix-")
	if err != nil {
		return err
	}
	s.dir = dir
	eng := server.NewEngine(server.EngineConfig{})
	store, recovered, err := durable.Open(dir)
	if err != nil {
		return err
	}
	s.store = store
	if len(recovered) != 0 {
		return fmt.Errorf("fresh data dir recovered %d datasets", len(recovered))
	}
	s.srv = server.New(eng, server.Config{Durable: store})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	s.handler = &tracedHandler{inner: s.srv.Handler()}
	s.httpSrv = &http.Server{Handler: s.handler}
	s.served = make(chan error, 1)
	// Connection goroutines inherit the serving goroutine's labels.
	go pprof.Do(context.Background(), pprof.Labels(labelLayer, "server"), func(context.Context) {
		s.served <- s.httpSrv.Serve(ln)
	})
	s.rt = &countingTransport{base: &http.Transport{MaxIdleConnsPerHost: serveClients()}}
	s.cl, err = client.New(client.Config{
		BaseURL:        "http://" + ln.Addr().String(),
		HTTPClient:     &http.Client{Transport: s.rt},
		RequestTimeout: 60 * time.Second,
	})
	return err
}

func (s *serveWorkload) close() {
	if s.httpSrv != nil {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		if err := s.httpSrv.Shutdown(ctx); err != nil {
			s.httpSrv.Close()
		}
		cancel()
		<-s.served
	}
	if s.rt != nil {
		s.rt.base.(*http.Transport).CloseIdleConnections()
	}
	if s.store != nil {
		s.store.Close()
	}
	if s.dir != "" {
		os.RemoveAll(s.dir)
	}
}

// phase drives the closed loop until the budget is spent; the op cursor
// and the cold/warm bookkeeping carry over from earlier phases.
func (s *serveWorkload) phase(ctx context.Context, budget time.Duration, tr *tracer) (*phaseResult, error) {
	s.handler.tr.Store(tr)
	defer s.handler.tr.Store(nil)
	st0 := s.srv.Stats()
	trips0 := s.rt.trips.Load()
	s.mu.Lock()
	calls0 := s.calls
	s.mu.Unlock()
	prune0 := neighbors.PruneTotals()

	start := time.Now()
	deadline := start.Add(budget)
	parts := make([]*phaseResult, serveClients())
	var explainNanos atomic.Int64
	var wg sync.WaitGroup
	for c := range parts {
		parts[c] = &phaseResult{classes: map[string][]time.Duration{}}
		wg.Add(1)
		go func(pr *phaseResult) {
			defer wg.Done()
			pprof.SetGoroutineLabels(pprof.WithLabels(ctx, pprof.Labels(labelLayer, "client")))
			for time.Now().Before(deadline) && ctx.Err() == nil {
				s.issue(ctx, pr, &explainNanos)
			}
		}(parts[c])
	}
	wg.Wait()
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	pr := &phaseResult{elapsed: time.Since(start), classes: map[string][]time.Duration{}, vals: map[string]float64{}}
	for _, p := range parts {
		pr.attempted += p.attempted
		pr.failed += p.failed
		pr.lat = append(pr.lat, p.lat...)
		for k, v := range p.classes {
			pr.classes[k] = append(pr.classes[k], v...)
		}
	}

	st := s.srv.Stats()
	v := pr.vals
	v["plane.queries"] = float64(st.Plane.Queries - st0.Plane.Queries)
	v["plane.computations"] = float64(st.Plane.Computations - st0.Plane.Computations)
	v["plane.hit_ratio"] = ratio(float64(st.Plane.Hits-st0.Plane.Hits), v["plane.queries"])
	v["plane.evictions"] = float64(st.Plane.Evictions - st0.Plane.Evictions)
	v["plane.upgrades"] = float64(st.Plane.Upgrades - st0.Plane.Upgrades)
	v["plane.resident_mb"] = float64(st.Plane.ResidentBytes) / (1 << 20)
	v["plane.delta.queries"] = float64(st.Plane.Delta.Queries - st0.Plane.Delta.Queries)
	v["plane.delta.resident_mb"] = float64(st.Plane.Delta.ResidentBytes) / (1 << 20)
	// Replaced tenants take their memos with them, so the memo counters
	// are those of the live tenants at the end of the phase.
	v["detector.memo.calls"] = float64(st.ScoreMemo.Calls)
	v["detector.memo.hit_ratio"] = ratio(float64(st.ScoreMemo.Hits), float64(st.ScoreMemo.Calls))
	v["detector.memo.evictions"] = float64(st.ScoreMemo.Evictions)
	v["server.admission.rejected"] = float64(st.Admission.Rejected429 - st0.Admission.Rejected429)
	v["server.dedup_factor"] = st.DedupFactor
	if st.Durable != nil && st0.Durable != nil {
		v["durable.appends"] = float64(st.Durable.Appends - st0.Durable.Appends)
		v["durable.compactions"] = float64(st.Durable.Compactions - st0.Durable.Compactions)
		v["durable.wal_bytes"] = float64(st.Durable.WALBytes)
	}
	s.mu.Lock()
	v["client.retries"] = float64(s.rt.trips.Load()-trips0) - float64(s.calls-calls0)
	s.mu.Unlock()
	pruneVals(v, prune0)
	if tr != nil {
		busy := tr.spanSeconds("server.explain") * 1000
		v["server.explain.busy_ms"] = busy
		if n := tr.spanCalls("server.explain"); n > 0 {
			v["server.transport_ms"] = (float64(explainNanos.Load())/1e6 - busy) / n
		}
	}
	return pr, nil
}

// issue takes the next op of the sequence and runs it. A registration is
// a barrier: it waits for the explains issued before it and holds back
// those after it, so a replaced tenant's cold requests always see its new
// payload.
func (s *serveWorkload) issue(ctx context.Context, pr *phaseResult, explainNanos *atomic.Int64) {
	s.order.Lock()
	op := s.ops[s.next%len(s.ops)]
	s.next++
	if op.register {
		s.barrier.Lock()
		defer s.barrier.Unlock()
	} else {
		s.barrier.RLock()
		defer s.barrier.RUnlock()
	}
	s.order.Unlock()
	s.do(ctx, op, pr, explainNanos)
}

// do issues one op and records it.
func (s *serveWorkload) do(ctx context.Context, op serveOp, pr *phaseResult, explainNanos *atomic.Int64) {
	t := s.tenants[op.tenant]
	pr.attempted++
	s.mu.Lock()
	s.calls++
	s.mu.Unlock()
	if op.register {
		start := time.Now()
		resp, err := s.cl.Register(ctx, t.name, t.versions[op.version], true)
		lat := time.Since(start)
		if err == nil && (resp.N != t.n || resp.D != t.d) {
			err = fmt.Errorf("registered %d×%d, sent %d×%d", resp.N, resp.D, t.n, t.d)
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "register %s: %v\n", t.name, err)
			pr.failed++
			return
		}
		s.mu.Lock()
		s.version[op.tenant] = op.version
		if resp.Replaced {
			s.epoch[op.tenant]++
		}
		s.mu.Unlock()
		pr.lat = append(pr.lat, lat)
		pr.classes["register"] = append(pr.classes["register"], lat)
		return
	}
	summary := op.algo == "lookout" || op.algo == "hics"
	s.mu.Lock()
	version := s.version[op.tenant]
	reqKey := fmt.Sprintf("%s|%s|%s|%dd", t.name, op.algo, op.det, op.dim)
	coldKey := fmt.Sprintf("%d|%s", s.epoch[op.tenant], reqKey)
	class := "warm"
	if !s.seen[coldKey] {
		s.seen[coldKey] = true
		class = "cold"
	}
	s.mu.Unlock()
	req := server.ExplainRequest{
		Dataset: t.name, Algo: op.algo, Detector: op.det, Dim: op.dim,
		Points: t.points(version, summary),
	}
	start := time.Now()
	raw, err := s.cl.ExplainRaw(ctx, req)
	lat := time.Since(start)
	explainNanos.Add(int64(lat))
	if err == nil {
		err = s.checkExplain(t, req, raw)
	}
	if err != nil {
		if !errors.Is(err, errMismatch) {
			fmt.Fprintf(os.Stderr, "explain %s: %v\n", reqKey, err)
		}
		pr.failed++
		return
	}
	pr.lat = append(pr.lat, lat)
	pr.classes[class] = append(pr.classes[class], lat)
}

var errMismatch = errors.New("output mismatch")

// checkExplain validates a response body: it must answer the request, and
// its digest must match the oracle's for the same request against the
// same payload (named by the hash the response carries).
func (s *serveWorkload) checkExplain(t *serveTenant, req server.ExplainRequest, raw []byte) error {
	var resp server.ExplainResponse
	if err := json.Unmarshal(raw, &resp); err != nil {
		return fmt.Errorf("decode response: %w", err)
	}
	summary := req.Algo == "lookout" || req.Algo == "hics"
	switch {
	case resp.Dataset != req.Dataset || resp.Algo != req.Algo || resp.Dim != req.Dim:
		return fmt.Errorf("response answers %s/%s/%dd", resp.Dataset, resp.Algo, resp.Dim)
	case summary && len(resp.Summary) == 0:
		return fmt.Errorf("empty summary")
	case !summary && len(resp.Points) != len(req.Points):
		return fmt.Errorf("%d point explanations for %d points", len(resp.Points), len(req.Points))
	}
	for _, sub := range resp.Summary {
		if len(sub.Features) != req.Dim || math.IsNaN(sub.Score) {
			return fmt.Errorf("malformed summary subspace %v", sub)
		}
	}
	key := fmt.Sprintf("%s@%.12s|%s|%s|%dd|%v", req.Dataset, resp.Hash, req.Algo, req.Detector, req.Dim, req.Points)
	if !s.orc.check(key, digest(raw)) {
		return errMismatch
	}
	return nil
}

// countingTransport counts HTTP round trips; beyond the client calls made
// they are the client's retries.
type countingTransport struct {
	base  http.RoundTripper
	trips atomic.Int64
}

func (c *countingTransport) RoundTrip(r *http.Request) (*http.Response, error) {
	c.trips.Add(1)
	return c.base.RoundTrip(r)
}

// tracedHandler is the server's http.Handler. Under a tracer it times
// explain requests and labels them with the explainer and detector they
// ask for; otherwise it passes requests straight through.
type tracedHandler struct {
	inner http.Handler
	tr    atomic.Pointer[tracer]
}

var displayNames = map[string]string{
	"beam": "Beam_FX", "refout": "RefOut", "lookout": "LookOut", "hics": "HiCS_FX",
	"lof": "LOF", "abod": "FastABOD",
}

func (h *tracedHandler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	tr := h.tr.Load()
	if tr == nil || r.URL.Path != "/v1/explain" {
		h.inner.ServeHTTP(w, r)
		return
	}
	defer tr.span("server.explain").add(time.Now())
	body, err := io.ReadAll(r.Body)
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	r.Body = io.NopCloser(bytes.NewReader(body))
	var req server.ExplainRequest
	_ = json.Unmarshal(body, &req) // a malformed body is the server's to reject
	do(r.Context(), func(ctx context.Context) { h.inner.ServeHTTP(w, r.WithContext(ctx)) },
		labelLayer, "server", labelExplainer, displayNames[req.Algo], labelDetector, displayNames[req.Detector])
}
