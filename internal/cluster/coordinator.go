package cluster

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"sort"
	"strings"
	"sync"
	"time"

	"hitl/internal/report"
	"hitl/internal/scenario"
	"hitl/internal/telemetry"
)

// Config tunes a Coordinator. Zero values mean the documented defaults.
type Config struct {
	// Workers are the pool's base URLs (e.g. "http://10.0.0.7:8080"),
	// scheme and host only. At least one is required.
	Workers []string
	// ShardTimeout bounds one shard attempt end to end; default 60s.
	ShardTimeout time.Duration
	// MaxAttempts is the per-shard attempt budget — first try plus
	// retries, across all nodes; default 4.
	MaxAttempts int
	// BaseBackoff and MaxBackoff bound the retry backoff schedule;
	// defaults 100ms and 5s. A Retry-After hint overrides the schedule but
	// is still clamped to MaxBackoff.
	BaseBackoff time.Duration
	MaxBackoff  time.Duration
	// ProbeInterval is the health-probe period; default 5s, negative
	// disables background probing (dispatch errors still mark nodes
	// unhealthy, but only ProbeNow can recover them).
	ProbeInterval time.Duration
	// ProbeTimeout bounds one health probe; default 2s.
	ProbeTimeout time.Duration
	// Replicas is the virtual-node count per worker on the placement
	// ring; default 64.
	Replicas int
	// MaxConcurrent caps in-flight shards across the pool; default
	// 2×len(Workers), at least 4.
	MaxConcurrent int
	// Client is the HTTP client used for shards and probes; default a
	// plain http.Client (per-attempt deadlines come from ShardTimeout).
	Client *http.Client
}

func (c *Config) setDefaults() {
	if c.ShardTimeout == 0 {
		c.ShardTimeout = 60 * time.Second
	}
	if c.MaxAttempts == 0 {
		c.MaxAttempts = 4
	}
	if c.BaseBackoff == 0 {
		c.BaseBackoff = 100 * time.Millisecond
	}
	if c.MaxBackoff == 0 {
		c.MaxBackoff = 5 * time.Second
	}
	if c.ProbeInterval == 0 {
		c.ProbeInterval = 5 * time.Second
	}
	if c.ProbeTimeout == 0 {
		c.ProbeTimeout = 2 * time.Second
	}
	if c.MaxConcurrent == 0 {
		c.MaxConcurrent = 2 * len(c.Workers)
		if c.MaxConcurrent < 4 {
			c.MaxConcurrent = 4
		}
	}
}

// RunOptions shape one distributed run.
type RunOptions struct {
	// Shards is how many shards to split the run into; 0 means one per
	// configured worker. Clamped to the subject count.
	Shards int
	// AllowPartial completes the run even when some shards exhaust their
	// retry budget: the merged result covers the shards that finished,
	// with Completed < N and RunStats.Missing recording the gap. Off, the
	// first exhausted shard fails the run.
	AllowPartial bool
}

// node is the coordinator's health view of one worker. The zero state is
// healthy: nodes are innocent until a probe or a dispatch proves
// otherwise, so a coordinator can start running before its first probe
// round completes.
type node struct {
	url string

	mu       sync.Mutex
	bad      bool
	draining bool
	reason   string
}

// set transitions the node's health state, returning the previous
// unhealthy flag so callers can detect edges.
func (n *node) set(bad, draining bool, reason string) (wasBad bool) {
	n.mu.Lock()
	defer n.mu.Unlock()
	wasBad = n.bad
	n.bad, n.draining, n.reason = bad, draining, reason
	return wasBad
}

func (n *node) unhealthy() bool {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.bad
}

// Coordinator shards scenario runs across a worker pool. Create with New,
// optionally Start the background health prober, and Close when done.
// Run is safe for concurrent use.
type Coordinator struct {
	cfg    Config
	ring   *ring
	client *client
	nodes  map[string]*node

	stop chan struct{}
	wg   sync.WaitGroup
	once sync.Once
}

// New builds a Coordinator over the configured worker pool.
func New(cfg Config) (*Coordinator, error) {
	if len(cfg.Workers) == 0 {
		return nil, fmt.Errorf("cluster: no workers configured")
	}
	for i, w := range cfg.Workers {
		w = strings.TrimRight(strings.TrimSpace(w), "/")
		if !strings.HasPrefix(w, "http://") && !strings.HasPrefix(w, "https://") {
			return nil, fmt.Errorf("cluster: worker %q is not an http(s) URL", cfg.Workers[i])
		}
		cfg.Workers[i] = w
	}
	cfg.setDefaults()
	r, err := newRing(cfg.Workers, cfg.Replicas)
	if err != nil {
		return nil, err
	}
	c := &Coordinator{
		cfg:    cfg,
		ring:   r,
		client: newClient(cfg.Client),
		nodes:  make(map[string]*node, len(cfg.Workers)),
		stop:   make(chan struct{}),
	}
	for _, w := range cfg.Workers {
		c.nodes[w] = &node{url: w}
	}
	return c, nil
}

// Start launches the background health prober (no-op when probing is
// disabled).
func (c *Coordinator) Start() {
	if c.cfg.ProbeInterval < 0 {
		return
	}
	c.wg.Add(1)
	go func() {
		defer c.wg.Done()
		t := time.NewTicker(c.cfg.ProbeInterval)
		defer t.Stop()
		for {
			select {
			case <-c.stop:
				return
			case <-t.C:
				ctx, cancel := context.WithTimeout(context.Background(), c.cfg.ProbeInterval)
				c.ProbeNow(ctx)
				cancel()
			}
		}
	}()
}

// Close stops the background prober. It does not wait for in-flight Runs.
func (c *Coordinator) Close() {
	c.once.Do(func() { close(c.stop) })
	c.wg.Wait()
}

// ProbeNow probes every worker's health endpoint once, concurrently, and
// updates the ring's health view: alive → healthy, 503 draining →
// drained from placement, unreachable or erroring → unhealthy.
func (c *Coordinator) ProbeNow(ctx context.Context) {
	var wg sync.WaitGroup
	for _, n := range c.nodes {
		wg.Add(1)
		go func(n *node) {
			defer wg.Done()
			h, status, err := c.client.health(ctx, n.url, c.cfg.ProbeTimeout)
			switch {
			case err != nil:
				c.markUnhealthy(n, false, err.Error())
			case status == http.StatusOK:
				c.markHealthy(n)
			case h.Status == StatusDraining:
				c.markUnhealthy(n, true, "draining")
			default:
				c.markUnhealthy(n, false, fmt.Sprintf("healthz http %d", status))
			}
		}(n)
	}
	wg.Wait()
}

// markUnhealthy records a node health downgrade, emitting the flight
// event and gauge update only on the healthy→unhealthy edge.
func (c *Coordinator) markUnhealthy(n *node, draining bool, reason string) {
	if wasBad := n.set(true, draining, reason); !wasBad {
		telemetry.Flight.Record(telemetry.EventNodeUnhealthy, n.url+": "+reason)
		telemetry.SetNodesUnhealthy(c.unhealthyCount())
	}
}

// markHealthy records a node recovery, with the same edge discipline.
func (c *Coordinator) markHealthy(n *node) {
	if wasBad := n.set(false, false, ""); wasBad {
		telemetry.Flight.Record(telemetry.EventNodeRecovered, n.url)
		telemetry.SetNodesUnhealthy(c.unhealthyCount())
	}
}

func (c *Coordinator) unhealthyCount() int {
	count := 0
	for _, n := range c.nodes {
		if n.unhealthy() {
			count++
		}
	}
	return count
}

// NodeStates snapshots the coordinator's health view per worker URL:
// "healthy", "draining", or "unhealthy".
func (c *Coordinator) NodeStates() map[string]string {
	out := make(map[string]string, len(c.nodes))
	for _, n := range c.nodes {
		n.mu.Lock()
		switch {
		case !n.bad:
			out[n.url] = "healthy"
		case n.draining:
			out[n.url] = "draining"
		default:
			out[n.url] = "unhealthy"
		}
		n.mu.Unlock()
	}
	return out
}

// Execute runs a normalized spec whose digest is Digest(norm) across the
// pool: slice into shard specs, place each on the ring by its canonical
// digest, dispatch with bounded concurrency and per-shard retry/failover,
// and merge the shard aggregates through the deterministic merge. The
// merged result is bit-identical to a single-node run of norm —
// regardless of pool size, shard count, retries, or failovers — because
// every shard simulates its global subject subrange under the engine's
// (seed, subject index) contract.
//
// The run goes through scenario.Execute with the sharded dispatch as
// Options.Dispatch, but only the seam's episode loop and its report
// assembly are shared: a round-free spec, sweep or not, goes whole to
// runSharded, which slices it with ShardSpecs and merges the workers'
// answers with MergeShardResults; an episode hands over one round at a
// time, each sharded like a standalone run, so every merged round is
// bit-identical to a single-node run of its RoundSpec. The returned
// stats sum over rounds, the run counts once in hitl_cluster_runs_total,
// and the run report carries the cluster section; its engine path is the
// merged result's, since no engine runs here.
//
// Partial episodes are refused with a "rounds" SpecError before any shard
// is dispatched: a round with missing shards would feed the adaptive
// policy different aggregates and silently change every later round.
func (c *Coordinator) Execute(ctx context.Context, norm scenario.Spec, digest string, opts RunOptions) (*scenario.Execution, RunStats, error) {
	stats := RunStats{Rounds: norm.Rounds, Nodes: make(map[string]int)}
	if norm.Rounds > 0 && opts.AllowPartial {
		return &scenario.Execution{}, stats, &scenario.SpecError{Field: "rounds",
			Err: errors.New("episodic runs cannot be partial (a short round would change every later round)")}
	}
	ex, err := scenario.Execute(ctx, norm, digest, scenario.Options{
		Report: true,
		Dispatch: func(ctx context.Context, norm scenario.Spec, digest string) (*scenario.Result, error) {
			res, rs, err := c.runSharded(ctx, norm, digest, opts)
			stats.add(rs)
			return res, err
		},
	})
	if err == nil {
		telemetry.RecordClusterRun(stats.Partial)
	}
	if ex.Report != nil {
		ex.Report.Partial = stats.Partial
		ex.Report.Cluster = &report.ClusterReport{
			Shards:     stats.Shards,
			Dispatched: stats.Dispatched,
			Retries:    stats.Retries,
			Failovers:  stats.Failovers,
			Nodes:      stats.Nodes,
			Partial:    stats.Partial,
			Missing:    stats.Missing,
		}
	}
	return ex, stats, err
}

// runSharded executes one round-free normalized spec, whose canonical
// digest is parentDigest, across the pool.
func (c *Coordinator) runSharded(ctx context.Context, norm scenario.Spec, parentDigest string, opts RunOptions) (*scenario.Result, RunStats, error) {
	count := opts.Shards
	if count <= 0 {
		count = len(c.cfg.Workers)
	}
	shardSpecs, err := scenario.ShardSpecs(norm, count)
	if err != nil {
		return nil, RunStats{}, err
	}

	stats := RunStats{Shards: len(shardSpecs), Nodes: make(map[string]int)}
	results := make([]*scenario.Result, len(shardSpecs))
	errs := make([]error, len(shardSpecs))

	// A non-partial run fails fast: the first exhausted shard cancels the
	// rest instead of burning the pool on a doomed run.
	runCtx, cancel := context.WithCancel(ctx)
	defer cancel()

	var (
		mu  sync.Mutex // guards stats
		wg  sync.WaitGroup
		sem = make(chan struct{}, c.cfg.MaxConcurrent)
	)
	for i := range shardSpecs {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			select {
			case sem <- struct{}{}:
				defer func() { <-sem }()
			case <-runCtx.Done():
				errs[i] = runCtx.Err()
				return
			}
			res, node, err := c.runShard(runCtx, parentDigest, i, shardSpecs, &stats, &mu)
			if err != nil {
				errs[i] = err
				if !opts.AllowPartial {
					cancel()
				}
				return
			}
			results[i] = res
			mu.Lock()
			stats.Nodes[node]++
			mu.Unlock()
		}(i)
	}
	wg.Wait()

	present := make([]*scenario.Result, 0, len(results))
	for i, r := range results {
		if r != nil {
			present = append(present, r)
			continue
		}
		stats.Missing = append(stats.Missing, i)
	}
	if len(stats.Missing) > 0 {
		// ctx's own cancellation always wins over partial completion: the
		// caller left, there is nobody to hand a partial result to.
		if ctx.Err() != nil {
			return nil, stats, ctx.Err()
		}
		// Report the lowest missing shard that failed on its own, not one
		// the first failure's cancel() stopped; only when every missing
		// shard was canceled does the lowest one stand for them.
		failed := stats.Missing[0]
		for _, i := range stats.Missing {
			if !errors.Is(errs[i], context.Canceled) {
				failed = i
				break
			}
		}
		first := errs[failed]
		if !opts.AllowPartial {
			return nil, stats, fmt.Errorf("cluster: shard %d failed: %w", failed, first)
		}
		if len(present) == 0 {
			return nil, stats, fmt.Errorf("cluster: every shard failed: %w", first)
		}
		stats.Partial = true
	}

	merged, err := scenario.MergeShardResults(norm, present)
	if err != nil {
		return nil, stats, err
	}
	return merged, stats, nil
}

// runShard drives one shard to completion or budget exhaustion: place on
// the ring, dispatch, classify failures, back off (honoring Retry-After),
// and fail over past suspect nodes.
func (c *Coordinator) runShard(ctx context.Context, parentDigest string, idx int, shardSpecs []scenario.Spec, stats *RunStats, mu *sync.Mutex) (*scenario.Result, string, error) {
	sp := shardSpecs[idx]
	digest, err := scenario.Digest(sp)
	if err != nil {
		return nil, "", err
	}
	req := ShardRequest{Spec: sp, Parent: parentDigest, Shard: idx, Shards: len(shardSpecs)}
	seq := c.ring.sequence(digest)
	pos := 0
	sheds := 0
	prev := ""
	var lastErr error

	for attempt := 1; attempt <= c.cfg.MaxAttempts; attempt++ {
		if attempt > 1 {
			var hint time.Duration
			if se, ok := lastErr.(*shardError); ok {
				hint = se.retryAfter
			}
			delay := c.client.backoff(attempt-1, c.cfg.BaseBackoff, c.cfg.MaxBackoff, hint)
			telemetry.RecordShardRetry()
			telemetry.Flight.Record(telemetry.EventShardRetry,
				fmt.Sprintf("shard %d/%d attempt %d after %s: %v", idx, len(shardSpecs), attempt, delay, lastErr))
			mu.Lock()
			stats.Retries++
			mu.Unlock()
			select {
			case <-time.After(delay):
			case <-ctx.Done():
				return nil, "", ctx.Err()
			}
		}

		target, at := c.pick(seq, pos)
		// Any move off the shard's preferred node — skipping a known-bad
		// node up front or advancing past one that just failed — is a
		// failover.
		if (prev == "" && target != seq[0]) || (prev != "" && target != prev) {
			telemetry.RecordShardFailover()
			telemetry.Flight.Record(telemetry.EventShardFailover,
				fmt.Sprintf("shard %d/%d -> %s (preferred %s)", idx, len(shardSpecs), target, seq[0]))
			mu.Lock()
			stats.Failovers++
			mu.Unlock()
		}
		prev = target

		telemetry.RecordShardDispatched()
		telemetry.Flight.Record(telemetry.EventShardDispatch,
			fmt.Sprintf("shard %d/%d -> %s (attempt %d, offset %d, n %d)", idx, len(shardSpecs), target, attempt, sp.Offset, sp.N))
		mu.Lock()
		stats.Dispatched++
		mu.Unlock()

		resp, err := c.client.postShard(ctx, target, req, c.cfg.ShardTimeout)
		if err == nil && resp.Digest != "" && resp.Digest != digest {
			err = &shardError{node: target, kind: errFaulted,
				err: fmt.Errorf("shard digest mismatch: got %s want %s", resp.Digest, digest)}
		}
		if err == nil {
			c.markHealthy(c.nodes[target])
			return resp.ScenarioResult(sp), target, nil
		}
		lastErr = err
		if ctx.Err() != nil {
			return nil, "", ctx.Err()
		}
		se, ok := err.(*shardError)
		switch {
		case ok && !se.retryable():
			return nil, "", err
		case ok && se.nodeSuspect():
			c.markUnhealthy(c.nodes[target], false, se.Error())
			pos = at + 1
			sheds = 0
		default:
			// Shed or faulted: the node is alive. Retry it once more —
			// sheds and injected faults are typically transient — but a
			// second consecutive refusal moves on rather than burning the
			// whole budget on one stubborn node.
			sheds++
			if sheds >= 2 {
				pos = at + 1
				sheds = 0
			}
		}
	}
	return nil, "", fmt.Errorf("cluster: shard %d retry budget exhausted after %d attempts: %w",
		idx, c.cfg.MaxAttempts, lastErr)
}

// pick returns the first currently-healthy node in the shard's ring
// sequence at or after pos, and its sequence index. With every node
// unhealthy it returns the node at pos anyway: health marks are
// heuristic, and attempting a possibly-recovered node beats certain
// failure.
func (c *Coordinator) pick(seq []string, pos int) (string, int) {
	for k := 0; k < len(seq); k++ {
		at := (pos + k) % len(seq)
		if !c.nodes[seq[at]].unhealthy() {
			return seq[at], at
		}
	}
	return seq[pos%len(seq)], pos % len(seq)
}

// Workers returns the configured pool, sorted, for status surfaces.
func (c *Coordinator) Workers() []string {
	out := append([]string(nil), c.cfg.Workers...)
	sort.Strings(out)
	return out
}
