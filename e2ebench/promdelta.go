package main

import (
	"bufio"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"
)

// counterNames are the GET /v1/metrics counters whose deltas over the
// timed window the benchmark checks against what its own ops imply.
var counterNames = []string{
	"hitl_sim_subjects_total",
	"hitl_sim_runs_total",
	"hitl_server_cache_hits",
	"hitl_server_cache_misses",
	"hitl_server_shed_total",
	"hitl_jobs_coalesced_total",
	"hitl_store_writes_total",
	"hitl_store_hits_total",
	"hitl_cluster_shards_dispatched_total",
	"hitl_cluster_shard_retries_total",
}

// processWide reports whether a counter belongs to the process rather
// than to one server: the engine and cluster collectors are package-level,
// so every in-process server's scrape repeats the same value and only one
// scrape may be counted.
func processWide(name string) bool {
	return strings.HasPrefix(name, "hitl_sim_") || strings.HasPrefix(name, "hitl_cluster_")
}

// parseProm reads the unlabelled samples of a Prometheus text exposition.
// Labelled series and comments are skipped; a malformed unlabelled sample
// is an error.
func parseProm(r io.Reader) (map[string]float64, error) {
	out := make(map[string]float64)
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 64<<10), 1<<20)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" || line[0] == '#' || strings.ContainsRune(line, '{') {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) != 2 {
			return nil, fmt.Errorf("metrics line %q: want name and value", line)
		}
		v, err := strconv.ParseFloat(fields[1], 64)
		if err != nil {
			return nil, fmt.Errorf("metrics line %q: %w", line, err)
		}
		out[fields[0]] = v
	}
	return out, sc.Err()
}

// scrape fetches and parses GET /v1/metrics from every base URL.
func scrape(hc *http.Client, bases []string) ([]map[string]float64, error) {
	out := make([]map[string]float64, len(bases))
	for i, base := range bases {
		resp, err := hc.Get(base + "/v1/metrics")
		if err != nil {
			return nil, fmt.Errorf("scraping %s: %w", base, err)
		}
		m, err := parseProm(resp.Body)
		resp.Body.Close()
		if err != nil {
			return nil, fmt.Errorf("scraping %s: %w", base, err)
		}
		if resp.StatusCode != http.StatusOK {
			return nil, fmt.Errorf("scraping %s: http %d", base, resp.StatusCode)
		}
		out[i] = m
	}
	return out, nil
}

// counterDeltas sums each counter's change between two scrapes of the same
// servers. Per-server counters add up across servers; process-wide ones
// are read from the first server only. A counter a server does not expose
// (no store, no cache) contributes nothing.
func counterDeltas(before, after []map[string]float64) (map[string]int64, error) {
	if len(before) != len(after) || len(before) == 0 {
		return nil, fmt.Errorf("scrape counts differ: %d before, %d after", len(before), len(after))
	}
	out := make(map[string]int64, len(counterNames))
	for _, name := range counterNames {
		var d float64
		for i := range after {
			if i > 0 && processWide(name) {
				break
			}
			d += after[i][name] - before[i][name]
		}
		if d != float64(int64(d)) {
			return nil, fmt.Errorf("counter %s moved by a fraction (%v)", name, d)
		}
		out[name] = int64(d)
	}
	return out, nil
}
