package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"slices"
	"sort"
	"strings"
)

// runSet holds the results of one side of a comparison, by workload and
// trace mode.
type runSet map[string]map[bool][]result

// compare prints, per workload, each end-to-end metric's median and
// quartiles for the parent and the change side by side, then the medians
// of the per-layer metrics and their deltas. Each argument is the saved
// standard output of one or more runs; the parent's files come first and
// the change's after a "--" (or, with exactly two files, one each).
func compare(w io.Writer, args []string) error {
	var parentFiles, changeFiles []string
	if i := slices.Index(args, "--"); i >= 0 {
		parentFiles, changeFiles = args[:i], args[i+1:]
	} else if len(args) == 2 {
		parentFiles, changeFiles = args[:1], args[1:]
	}
	if len(parentFiles) == 0 || len(changeFiles) == 0 {
		return fmt.Errorf("usage: compare PARENT.out CHANGE.out | compare PARENT... -- CHANGE...")
	}
	parent, err := loadRuns(parentFiles)
	if err != nil {
		return err
	}
	change, err := loadRuns(changeFiles)
	if err != nil {
		return err
	}
	var names []string
	for n := range parent {
		if _, ok := change[n]; ok {
			names = append(names, n)
		}
	}
	sort.Strings(names)
	if len(names) == 0 {
		return fmt.Errorf("no workload has runs on both sides")
	}
	for _, n := range names {
		fmt.Fprintf(w, "== %s\n", n)
		p, c := parent[n][false], change[n][false]
		if len(p) > 0 && len(c) > 0 {
			fmt.Fprintf(w, "end to end (untraced runs: parent %d, change %d); ratio base = parent median\n", len(p), len(c))
			fmt.Fprintf(w, "  %-14s %-5s %28s %28s %8s\n", "metric", "unit", "parent median [q1, q3]", "change median [q1, q3]", "ratio")
			for _, m := range endToEnd {
				pv, cv := values(p, m.name), values(c, m.name)
				fmt.Fprintf(w, "  %-14s %-5s %28s %28s %8s\n", m.name, m.unit, quartiles(pv), quartiles(cv),
					ratioText(quantile(cv, 0.5), quantile(pv, 0.5)))
			}
			fmt.Fprintf(w, "  failed ops: parent %d, change %d\n", failedOps(p), failedOps(c))
		}
		p, c = parent[n][true], change[n][true]
		if len(p) > 0 && len(c) > 0 {
			fmt.Fprintf(w, "per layer (traced runs: parent %d, change %d); delta = change − parent median, ratio base = parent median\n", len(p), len(c))
			fmt.Fprintf(w, "  %-28s %-6s %12s %12s %12s %8s\n", "metric", "unit", "parent", "change", "delta", "ratio")
			for _, m := range perLayer {
				pm, cm := quantile(values(p, m.name), 0.5), quantile(values(c, m.name), 0.5)
				if pm == 0 && cm == 0 {
					continue // a layer neither side reached
				}
				fmt.Fprintf(w, "  %-28s %-6s %12.4g %12.4g %+12.4g %8s\n", m.name, m.unit, pm, cm, cm-pm, ratioText(cm, pm))
			}
		}
	}
	return nil
}

// loadRuns reads saved run outputs: each result line is attributed to the
// provenance line printed before it.
func loadRuns(files []string) (runSet, error) {
	set := runSet{}
	for _, path := range files {
		f, err := os.Open(path)
		if err != nil {
			return nil, err
		}
		var prov struct {
			Provenance *struct {
				Workload string `json:"workload"`
				Trace    bool   `json:"trace"`
			} `json:"provenance"`
		}
		sc := bufio.NewScanner(f)
		sc.Buffer(make([]byte, 1<<20), 1<<20)
		for sc.Scan() {
			line := strings.TrimSpace(sc.Text())
			switch {
			case strings.HasPrefix(line, `{"provenance"`):
				if err := json.Unmarshal([]byte(line), &prov); err != nil {
					f.Close()
					return nil, fmt.Errorf("%s: %w", path, err)
				}
			case strings.HasPrefix(line, `{"correct"`) && prov.Provenance != nil:
				var r result
				if err := json.Unmarshal([]byte(line), &r); err != nil {
					f.Close()
					return nil, fmt.Errorf("%s: %w", path, err)
				}
				p := prov.Provenance
				if set[p.Workload] == nil {
					set[p.Workload] = map[bool][]result{}
				}
				set[p.Workload][p.Trace] = append(set[p.Workload][p.Trace], r)
				prov.Provenance = nil
			}
		}
		err = sc.Err()
		f.Close()
		if err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
	}
	return set, nil
}

func values(rs []result, name string) []float64 {
	var out []float64
	for _, r := range rs {
		if m, ok := r.Metrics[name]; ok {
			out = append(out, m.Value)
		}
	}
	return out
}

// ratioText prints change/parent, or n/a when the parent reads 0.
func ratioText(change, parent float64) string {
	if parent == 0 {
		return "n/a"
	}
	return fmt.Sprintf("%.3f", change/parent)
}

func quartiles(xs []float64) string {
	return fmt.Sprintf("%.4g [%.4g, %.4g]", quantile(xs, 0.5), quantile(xs, 0.25), quantile(xs, 0.75))
}

func failedOps(rs []result) int {
	n := 0
	for _, r := range rs {
		n += r.Failed
	}
	return n
}
