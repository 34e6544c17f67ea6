package main

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"strconv"
	"strings"

	"anex/internal/detector"
	"anex/internal/neighbors"
	"anex/internal/parallel"
)

// provenance describes the host, the build and the run, printed before
// every result line so that a stored result says what produced it.
func provenance(workload string, seed int64, traced bool) map[string]any {
	return map[string]any{
		"workload":         workload,
		"seed":             seed,
		"trace":            traced,
		"nproc":            runtime.NumCPU(),
		"gomaxprocs":       runtime.GOMAXPROCS(0),
		"worker_budget":    parallel.Resolve(0),
		"cpu_model":        cpuModel(),
		"go_version":       runtime.Version(),
		"commit":           commit(),
		"source_digest":    sourceDigest("."),
		"plane_budget_mib": neighbors.DefaultPlaneBytes >> 20,
		"memo_budget_mib":  detector.DefaultCacheBytes >> 20,
		"clients":          serveClients(),
	}
}

// cpuModel reads the first "model name" of /proc/cpuinfo.
func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// commit is the VCS revision stamped into the binary when it was built
// inside a git checkout, else "unknown".
func commit() string {
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				return s.Value
			}
		}
	}
	return "unknown"
}

// sourceDigest names the code measured where no commit is stamped: the
// digest of every Go source and go.mod under root (the run's directory),
// by path and content, leaving out the build directory.
func sourceDigest(root string) string {
	h := sha256.New()
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		switch {
		case err != nil:
			return err
		case d.IsDir() && path == filepath.Join(root, ".bench_build"):
			return filepath.SkipDir
		case d.IsDir() || !(strings.HasSuffix(path, ".go") || d.Name() == "go.mod"):
			return nil
		}
		b, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		fmt.Fprintf(h, "%s %d\n", filepath.ToSlash(path), len(b))
		h.Write(b)
		return nil
	})
	if err != nil {
		return "unknown"
	}
	return hex.EncodeToString(h.Sum(nil)[:16])
}

// peakRSSMB reads the process's peak resident set (VmHWM) in MiB.
func peakRSSMB() float64 {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if v, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(v), "kB")), 64)
			if err != nil {
				return 0
			}
			return kb / 1024
		}
	}
	return 0
}
