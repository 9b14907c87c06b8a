package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"

	"hitl/internal/scenario"
)

// The six example specs every workload draws from, by file stem. They are
// named rather than globbed so that a new example file does not silently
// change the work the benchmark measures.
const (
	exExpirySweep = "password-expiry-sweep"
	exPortfolio   = "password-portfolio"
	exAdaptive    = "phishing-adaptive-campaign"
	exCampaign    = "phishing-campaign"
	exStudyMean   = "phishing-study-mean"
	exStudy       = "phishing-study"
)

var exampleNames = []string{exExpirySweep, exPortfolio, exAdaptive, exCampaign, exStudyMean, exStudy}

// loadExamples parses the example specs from dir, keyed by file stem.
func loadExamples(dir string) (map[string]scenario.Spec, error) {
	out := make(map[string]scenario.Spec, len(exampleNames))
	for _, name := range exampleNames {
		f, err := os.Open(filepath.Join(dir, name+".json"))
		if err != nil {
			return nil, fmt.Errorf("loading example spec: %w", err)
		}
		sp, err := scenario.ParseSpec(f)
		f.Close()
		if err != nil {
			return nil, fmt.Errorf("example %s: %w", name, err)
		}
		out[name] = sp
	}
	return out, nil
}

// Seed streams keep the specs of different purposes disjoint, so a warm-up
// op never pre-fills the cache entry of a timed op.
const (
	streamTimed = iota + 1
	streamWarm
	streamTraced
	streamWorkingSet
)

// opSeed derives the spec seed of op i of one stream from the workload
// seed: a splitmix64 finalizer, folded into [1, 2^31) so every seed is
// nonzero and survives JSON round trips exactly.
func opSeed(workloadSeed int64, stream, i int) int64 {
	z := uint64(workloadSeed)*0x9E3779B97F4A7C15 + uint64(stream)<<40 + uint64(i) + 0x9E3779B97F4A7C15
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	z ^= z >> 31
	return int64(z%(1<<31-1)) + 1
}

// specOf returns example name re-seeded, and resized when n > 0.
func specOf(examples map[string]scenario.Spec, name string, seed int64, n int) scenario.Spec {
	sp := examples[name]
	sp.Seed = seed
	if n > 0 {
		sp.N = n
	}
	return sp
}

// respell renders spec the second way a client might write it: every
// default spelled out (the normalized form), top-level keys in reverse
// order, and a client-picked worker count. It normalizes, and so
// digests, exactly like the plain spelling.
func respell(spec scenario.Spec) ([]byte, error) {
	norm, err := scenario.Normalize(spec)
	if err != nil {
		return nil, err
	}
	norm.Workers = 1
	raw, err := json.Marshal(norm)
	if err != nil {
		return nil, err
	}
	var fields map[string]json.RawMessage
	if err := json.Unmarshal(raw, &fields); err != nil {
		return nil, err
	}
	keys := make([]string, 0, len(fields))
	for k := range fields {
		keys = append(keys, k)
	}
	sort.Sort(sort.Reverse(sort.StringSlice(keys)))
	var b bytes.Buffer
	b.WriteByte('{')
	for i, k := range keys {
		if i > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, "%q:%s", k, fields[k])
	}
	b.WriteByte('}')
	return b.Bytes(), nil
}
