package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"sync"
)

// oracle checks a run's outputs. Every output has a key (a grid cell, a
// request, a stream pass) and a value (MAP/MeanRecall bit patterns, a
// response-body digest, an alert-stream digest). A value must equal the
// one recorded for the seed in perfbench/oracle, when there is one, and
// every earlier value of the same key in this run: the repository's
// bit-identicality contract makes both exact, warm or cold, at any worker
// count. A mismatch fails the op.
type oracle struct {
	path   string
	record bool

	mu   sync.Mutex
	ref  map[string]string
	seen map[string]string
	bad  int
}

// loadOracle opens the reference of one workload and seed; a seed without
// one checks self-consistency only. In record mode the run's outputs are
// written there by save instead of being checked against it.
func loadOracle(dir, workload string, seed int64, record bool) (*oracle, error) {
	o := &oracle{
		path:   filepath.Join(dir, workload, fmt.Sprintf("seed-%d.json", seed)),
		record: record,
		ref:    map[string]string{},
		seen:   map[string]string{},
	}
	raw, err := os.ReadFile(o.path)
	switch {
	case errors.Is(err, fs.ErrNotExist):
		return o, nil
	case err != nil:
		return nil, fmt.Errorf("oracle: %w", err)
	}
	if err := json.Unmarshal(raw, &o.ref); err != nil {
		return nil, fmt.Errorf("oracle %s: %w", o.path, err)
	}
	return o, nil
}

// check reports whether got is the right output for key, counting and
// logging a mismatch.
func (o *oracle) check(key, got string) bool {
	o.mu.Lock()
	defer o.mu.Unlock()
	if prev, ok := o.seen[key]; ok && prev != got {
		return o.fail(key, got, prev, "an earlier output of this run")
	}
	o.seen[key] = got
	if want, ok := o.ref[key]; ok && !o.record && want != got {
		return o.fail(key, got, want, "the recorded reference")
	}
	return true
}

func (o *oracle) fail(key, got, want, source string) bool {
	o.bad++
	if o.bad <= 5 {
		fmt.Fprintf(os.Stderr, "perfbench: output mismatch on %q: got %s, %s has %s\n", key, got, source, want)
	}
	return false
}

// mismatches counts the failed checks so far.
func (o *oracle) mismatches() int {
	o.mu.Lock()
	defer o.mu.Unlock()
	return o.bad
}

// save writes the recorded reference: the earlier reference extended by
// this run's outputs.
func (o *oracle) save() error {
	o.mu.Lock()
	defer o.mu.Unlock()
	merged := make(map[string]string, len(o.ref)+len(o.seen))
	for k, v := range o.ref {
		merged[k] = v
	}
	for k, v := range o.seen {
		merged[k] = v
	}
	raw, err := json.MarshalIndent(merged, "", " ") // keys sorted
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(o.path), 0o755); err != nil {
		return err
	}
	return os.WriteFile(o.path, append(raw, '\n'), 0o644)
}

// digest is the hex SHA-256 of b, shortened to 16 bytes.
func digest(b []byte) string {
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:16])
}
