package main

import (
	_ "embed"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"hash"
	"hash/fnv"
	"os"

	"repro/internal/sm"
)

// digestsJSON holds the expected digest of every workload whose
// simulated statistics are known in advance: under its plain name when
// the inputs do not depend on -seed, under name@seed otherwise.
//
//go:embed testdata/digests.json
var digestsJSON []byte

const digestsPath = "testdata/digests.json"

func loadDigests() (map[string]string, error) {
	m := map[string]string{}
	if err := json.Unmarshal(digestsJSON, &m); err != nil {
		return nil, fmt.Errorf("%s: %w", digestsPath, err)
	}
	return m, nil
}

// updateDigest rewrites one entry of the checked-in digest file. It
// works on the file next to the sources, so it is meant to be run from
// the bench directory (as `go run -C bench .` does).
func updateDigest(key, value string) error {
	m := map[string]string{}
	if b, err := os.ReadFile(digestsPath); err == nil {
		if err := json.Unmarshal(b, &m); err != nil {
			return fmt.Errorf("%s: %w", digestsPath, err)
		}
	}
	m[key] = value
	b, err := json.MarshalIndent(m, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(digestsPath, append(b, '\n'), 0o644)
}

// hashStats folds the counters a timing-neutral change must leave
// untouched into h. The fields are listed one by one on purpose: a
// counter added to sm.Stats later must not change the digest of a run
// that computed the same thing.
func hashStats(h hash.Hash64, s *sm.Stats) {
	m := &s.Mem
	var b [8]byte
	for _, v := range [...]uint64{
		uint64(s.Cycles), s.ThreadInstrs, s.SyncThreadInstrs, s.IssueSlots, s.PrimaryIssues, s.SecondaryIssues,
		s.SBIPairs, s.SWIPairs, s.SeqPairs, s.SyncWaits, s.MemSplits, s.Divergences, s.Merges,
		s.ScoreboardChecks, s.ScoreboardStalls, s.StructuralStalls, s.Transactions, s.Replays,
		s.BarrierWaits, uint64(s.BlocksRun),
		m.Loads, m.Stores, m.Hits, m.Misses, m.MSHRMerges, m.Transactions, m.StoreQueueStalls,
		m.L2.Loads, m.L2.Stores, m.L2.Hits, m.L2.Misses, m.L2.MSHRMerges, m.L2.BankStalls,
		m.NoC.Requests, m.NoC.Bytes, m.NoC.QueueCycles,
	} {
		binary.LittleEndian.PutUint64(b[:], v)
		h.Write(b[:])
	}
}

// digest is the fingerprint of what one pass computed: every launch's
// statistics in launch order, then every rendered table.
func (o *passOut) digest() string {
	h := fnv.New64a()
	for _, r := range o.results {
		hashStats(h, &r.Stats)
	}
	for _, t := range o.tables {
		h.Write([]byte(t))
	}
	return fmt.Sprintf("%016x", h.Sum64())
}
