// Command perfbench is anex's end-to-end benchmark: four workloads run
// through the public entry points of internal/pipeline (paper-grid,
// knn-grid), internal/server + internal/client (serve-mix) and
// internal/stream (stream-window). Run it from the repository root through
// run.sh, which builds it:
//
//	sh perfbench/run.sh --workload knn-grid --seed 3 --seconds 20 --trace 0
//	sh perfbench/run.sh compare parent.out change.out
//
// A run makes every input from --seed, sets the workload up several times
// (setup_s is the median), measures ops for --seconds, checks every output
// against the recorded oracle (perfbench/oracle) and against itself, and
// prints a provenance line and, last, one JSON result line. With --trace 1
// it measures an untraced phase and then a traced phase, and the result
// holds the per-layer ledger instead of the end-to-end metrics. See
// NOTES.md for the workloads, the metrics and how to read them.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"runtime"
	"sort"
	"syscall"
	"time"
)

// A run builds its workload at least minSetups times and until
// setupBudget is spent (at most maxSetups times): setup_s reports the
// median, and the last build is the one measured. Set-ups range from a
// millisecond to a fraction of a second, so a count alone would leave the
// short ones noisy.
const (
	minSetups   = 5
	maxSetups   = 200
	setupBudget = 2 * time.Second
)

// oracleDir holds the recorded reference outputs, relative to the
// repository root a run starts in.
const oracleDir = "perfbench/oracle"

// result is the last line of a run's standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	var (
		name    = flag.String("workload", "", "workload to run: "+workloadNames())
		seed    = flag.Int64("seed", 1, "seed every input is made from")
		seconds = flag.Float64("seconds", 20, "measured seconds per phase")
		trace   = flag.Int("trace", 0, "1 = add a traced phase and print the per-layer ledger")
		record  = flag.Bool("record", false, "write this run's outputs as the seed's reference instead of checking them")
	)
	flag.Parse()
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	if flag.NArg() > 0 && flag.Arg(0) == "compare" {
		if err := compare(os.Stdout, flag.Args()[1:]); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			os.Exit(2)
		}
		return
	}
	if flag.NArg() > 0 || (*trace != 0 && *trace != 1) || *seconds <= 0 {
		flag.Usage()
		os.Exit(2)
	}
	spec, ok := workloads[*name]
	if !ok {
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q (want %s)\n", *name, workloadNames())
		os.Exit(2)
	}
	orc, err := loadOracle(oracleDir, *name, *seed, *record)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	res, err := run(ctx, spec, *seed, secondsDuration(*seconds), *trace == 1, orc)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	if *record {
		if err := orc.save(); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			os.Exit(1)
		}
	}
	prov := provenance(*name, *seed, *trace == 1)
	if err := printResult(os.Stdout, prov, res); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func secondsDuration(s float64) time.Duration { return time.Duration(s * float64(time.Second)) }

// anotherRound reports whether a phase that runs whole rounds, elapsed
// into it and with a last round of length last, should run one more:
// only if that round, expected to take as long, ends nearer the budget
// than stopping now. A grid round is about half a 30 s budget, so a rule
// of "only while the next round fits" would measure one round and stop
// half-way.
func anotherRound(elapsed, last, budget time.Duration) bool {
	return elapsed+last/2 < budget
}

// workloadSpec builds one workload. build is the measured set-up; it
// returns the workload and the per-layer values its set-up produced.
type workloadSpec struct {
	build func(ctx context.Context, seed int64, orc *oracle) (workload, map[string]float64, error)
	// guard asserts that the layer the workload exists for engaged in a
	// phase, given that phase's counter values.
	guard func(vals map[string]float64) error
}

// workload is a set-up workload ready to measure.
type workload interface {
	// phase runs ops for about budget (whole rounds for the grids) and
	// reports them; tr is nil in an untraced phase.
	phase(ctx context.Context, budget time.Duration, tr *tracer) (*phaseResult, error)
	// close releases everything the set-up started.
	close()
}

// phaseResult is what one measured phase produced.
type phaseResult struct {
	elapsed   time.Duration
	lat       []time.Duration // one per op that succeeded and passed its check
	attempted int
	failed    int
	// classes splits serve-mix latencies by request class.
	classes map[string][]time.Duration
	// vals are the phase's counter-derived per-layer values.
	vals map[string]float64
}

var workloads = map[string]workloadSpec{
	"paper-grid":    {build: buildPaperGrid, guard: guardPaperGrid},
	"knn-grid":      {build: buildKNNGrid, guard: guardKNNGrid},
	"serve-mix":     {build: buildServeMix, guard: guardServeMix},
	"stream-window": {build: buildStreamWindow, guard: guardStreamWindow},
}

func workloadNames() string {
	names := make([]string, 0, len(workloads))
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return fmt.Sprint(names)
}

// run sets the workload up repeatedly, measures it, and returns the
// result line: the end-to-end metrics, or with traced set the per-layer
// ledger of an extra traced phase.
func run(ctx context.Context, spec workloadSpec, seed int64, budget time.Duration, traced bool, orc *oracle) (*result, error) {
	var (
		w          workload
		setups     []float64
		setupVals  []map[string]float64
		setupTotal time.Duration
	)
	for i := 0; i < maxSetups && (i < minSetups || setupTotal < setupBudget); i++ {
		if w != nil {
			w.close()
			w = nil
		}
		// Each set-up and the measured phase start from a collected heap,
		// so the garbage of earlier set-ups moves neither the set-up times
		// nor the phase's peak RSS.
		runtime.GC()
		start := time.Now()
		var vals map[string]float64
		var err error
		w, vals, err = spec.build(ctx, seed, orc)
		if err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		took := time.Since(start)
		setupTotal += took
		setups = append(setups, took.Seconds())
		setupVals = append(setupVals, vals)
	}
	defer func() { w.close() }()
	runtime.GC()

	un, err := w.phase(ctx, budget, nil)
	if err != nil {
		return nil, err
	}
	if err := spec.guard(un.vals); err != nil {
		return nil, fmt.Errorf("engagement guard (untraced phase): %w", err)
	}
	res := &result{Attempted: un.attempted, Failed: un.failed}
	if !traced {
		lat := millis(un.lat)
		res.Metrics = fill(endToEnd, map[string]float64{
			"ops_per_s":   float64(un.attempted-un.failed) / un.elapsed.Seconds(),
			"op_gmean_ms": gmean(lat),
			"peak_rss_mb": peakRSSMB(),
			"setup_s":     quantile(setups, 0.5),
		})
	} else {
		// The traced phase runs on a fresh set-up, so that it repeats the
		// untraced phase's ops and trace.overhead compares like with like.
		fresh, _, err := spec.build(ctx, seed, orc)
		if err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		w.close()
		w = fresh
		runtime.GC()
		tr := newTracer()
		if err := tr.start(); err != nil {
			return nil, err
		}
		tp, err := w.phase(ctx, budget, tr)
		ledger, lerr := tr.stop()
		if err != nil {
			return nil, err
		}
		if lerr != nil {
			return nil, lerr
		}
		if err := spec.guard(tp.vals); err != nil {
			return nil, fmt.Errorf("engagement guard (traced phase): %w", err)
		}
		vals := ledger
		for k, v := range tp.vals {
			vals[k] = v
		}
		for _, k := range []string{"synth.generate_s", "synth.groundtruth_s"} {
			var xs []float64
			for _, sv := range setupVals {
				xs = append(xs, sv[k])
			}
			vals[k] = quantile(xs, 0.5)
		}
		unOps := float64(un.attempted-un.failed) / un.elapsed.Seconds()
		trOps := float64(tp.attempted-tp.failed) / tp.elapsed.Seconds()
		vals["trace.overhead"] = ratio(unOps, trOps) - 1
		vals["op_p50_ms"] = quantile(millis(un.lat), 0.50)
		vals["op_p99_ms"] = quantile(millis(un.lat), 0.99)
		classQuantiles(vals, un.classes)
		res.Attempted += tp.attempted
		res.Failed += tp.failed
		vals["fail_frac"] = ratio(float64(res.Failed), float64(res.Attempted))
		res.Metrics = fill(perLayer, vals)
	}
	res.Correct = res.Failed == 0 && orc.mismatches() == 0
	return res, nil
}

// classQuantiles adds the serve-mix latency quantiles by request class.
func classQuantiles(vals map[string]float64, classes map[string][]time.Duration) {
	q := func(class string, p float64) float64 { return quantile(millis(classes[class]), p) }
	vals["explain_cold_p50_ms"] = q("cold", 0.50)
	vals["explain_cold_p90_ms"] = q("cold", 0.90)
	vals["explain_warm_p50_ms"] = q("warm", 0.50)
	vals["explain_warm_p99_ms"] = q("warm", 0.99)
	vals["register_p50_ms"] = q("register", 0.50)
	vals["register_p90_ms"] = q("register", 0.90)
}

// printResult writes the provenance line and, last, the result line.
func printResult(f io.Writer, prov map[string]any, res *result) error {
	p, err := json.Marshal(map[string]any{"provenance": prov})
	if err != nil {
		return err
	}
	r, err := json.Marshal(res)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(f, "%s\n%s\n", p, r)
	return err
}

// errGuard marks a failed engagement guard.
var errGuard = errors.New("layer did not engage")

func guardf(format string, args ...any) error {
	return fmt.Errorf("%w: %s", errGuard, fmt.Sprintf(format, args...))
}
