package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
)

// ledger is a workload's exact work record: counts that are a pure
// function of the seed (events, cells, drops, windows, bytes, frames,
// cache hits, forwards). Any difference between runs of one seed is a
// determinism failure; a second seed must change it.
type ledger map[string]uint64

// equal reports whether two ledgers hold the same counts.
func (l ledger) equal(o ledger) bool {
	if len(l) != len(o) {
		return false
	}
	for k, v := range l {
		if w, ok := o[k]; !ok || w != v {
			return false
		}
	}
	return true
}

// diff names the first count that differs, for the failure message.
func (l ledger) diff(o ledger) string {
	for k, v := range l {
		if o[k] != v {
			return fmt.Sprintf("%s: %d vs %d", k, v, o[k])
		}
	}
	for k := range o {
		if _, ok := l[k]; !ok {
			return fmt.Sprintf("%s: missing vs %d", k, o[k])
		}
	}
	return "equal"
}

// verify compares the ledger with those of earlier runs of the same
// binary and workload kept under dir: the same seed must reproduce it
// exactly, any other seed must differ. It then stores this run's.
func (l ledger) verify(dir, workload string, cfg config) error {
	if len(l) == 0 {
		return fmt.Errorf("empty work ledger")
	}
	id, err := exeID()
	if err != nil {
		return err
	}
	ldir := filepath.Join(dir, "ledger")
	if err := os.MkdirAll(ldir, 0o755); err != nil {
		return err
	}
	// The serving schedule scales with the run length, so the ledger is
	// keyed by it too.
	suffix := fmt.Sprintf("-s%d-%s.json", int(cfg.seconds.Seconds()), id)
	prefix := workload + "-seed"
	mine := filepath.Join(ldir, fmt.Sprintf("%s%d%s", prefix, cfg.seed, suffix))
	ents, err := os.ReadDir(ldir)
	if err != nil {
		return err
	}
	for _, e := range ents {
		n := e.Name()
		if !strings.HasPrefix(n, prefix) || !strings.HasSuffix(n, suffix) {
			continue
		}
		raw, err := os.ReadFile(filepath.Join(ldir, n))
		if err != nil {
			return err
		}
		var old ledger
		if err := json.Unmarshal(raw, &old); err != nil {
			return fmt.Errorf("ledger %s: %w", n, err)
		}
		same := filepath.Join(ldir, n) == mine
		switch {
		case same && !old.equal(l):
			return fmt.Errorf("work ledger differs from an earlier run of seed %d (%s)", cfg.seed, old.diff(l))
		case !same && old.equal(l):
			return fmt.Errorf("work ledger of seed %d equals that of %s: the seed is not honored", cfg.seed, n)
		}
	}
	raw, err := json.MarshalIndent(l, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(mine, raw, 0o644)
}

// exeID fingerprints the running binary, so ledgers of different builds
// are never compared.
func exeID() (string, error) {
	path, err := os.Executable()
	if err != nil {
		return "", err
	}
	f, err := os.Open(path)
	if err != nil {
		return "", err
	}
	defer f.Close()
	h := sha256.New()
	if _, err := io.Copy(h, f); err != nil {
		return "", err
	}
	return hex.EncodeToString(h.Sum(nil))[:12], nil
}
