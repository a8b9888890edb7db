// Package client is the user-facing library for the reconfigurable SMR
// service. A Client is one session against the service; a Directory is the
// shared, process-wide view of the service that any number of sessions
// multiplex over: one transport connection per server (the rpc peer
// request-id-matches unlimited concurrent calls), one cached configuration
// chain position, one leader hint. A session adopts the freshest
// configuration observed by ANY session's reply, so a forwarding chain is
// walked at most once per process, not once per session — the property that
// makes 100k sessions affordable.
//
// The client guarantees at-most-once execution through per-session sequence
// numbers (commands are always retried under the same sequence number until
// acknowledged), follows redirects left by wedged configurations, honors
// SubmitBusy shed replies with the server's RetryAfter hint, and backs off
// between attempts with jittered exponential delays (the same discipline the
// servers use for state-transfer retries).
package client

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"time"

	"repro/internal/history"
	"repro/internal/reconfig"
	"repro/internal/rpc"
	"repro/internal/transport"
	"repro/internal/types"
)

// resend is the in-attempt RPC retransmission interval.
const resend = 50 * time.Millisecond

// Options tunes the client's retry behavior. Zero values take defaults.
type Options struct {
	// AttemptTimeout bounds one RPC attempt. Default 500ms.
	AttemptTimeout time.Duration
	// RetryBackoff is the base of the jittered exponential backoff between
	// failed attempts (doubling, capped at RetryMax). Default 2ms.
	RetryBackoff time.Duration
	// RetryMax caps the exponential backoff. Default 250ms.
	RetryMax time.Duration
	// RetryBudget bounds the attempts one Submit makes before giving up
	// with a BudgetError. 0 = retry until ctx expires. The budget only
	// bounds attempts while the command provably never executed (every
	// attempt answered with a redirect or a shed): once an attempt's
	// outcome is unknown the command may already be applied, and abandoning
	// it would turn at-most-once into a silent drop, so the client keeps
	// pursuing the same sequence number (idempotent under the session
	// dedup) until a definitive reply or ctx expiry.
	RetryBudget int
	// Recorder, when set, captures every Submit/SubmitSeq as a history
	// operation: acknowledged submits record their reply; a submit that
	// gives up after an attempt may have reached the service records an
	// ambiguous outcome; one that provably never executed (every attempt
	// was answered with a redirect or a shed) records a failure.
	Recorder *history.Recorder
}

func (o Options) withDefaults() Options {
	if o.AttemptTimeout <= 0 {
		o.AttemptTimeout = 500 * time.Millisecond
	}
	if o.RetryBackoff <= 0 {
		o.RetryBackoff = 2 * time.Millisecond
	}
	if o.RetryMax <= 0 {
		o.RetryMax = 250 * time.Millisecond
	}
	return o
}

// Stats counts one session's control-plane activity.
type Stats struct {
	Submits   int64 // completed Submit calls (including reads)
	Reads     int64 // completed Read calls
	Attempts  int64 // individual RPC attempts
	Redirects int64 // redirect replies followed
	Busy      int64 // SubmitBusy shed replies received
}

// DirectoryStats counts the shared cache's activity.
type DirectoryStats struct {
	Adopts int64 // configuration adoptions (strictly newer than cached)
}

// ErrClosed is returned after Close.
var ErrClosed = errors.New("client: closed")

// ErrBudgetExhausted matches (via errors.Is) a BudgetError.
var ErrBudgetExhausted = errors.New("client: retry budget exhausted")

// BudgetError reports a Submit that ran out of its retry budget. Ambiguous
// distinguishes "the command may have executed" (an attempt timed out or the
// reply was lost) from "the command provably never executed" (every attempt
// was answered with a redirect or a shed) — the distinction open-loop load
// drivers need to count silent drops. No shipped path sets Ambiguous (a
// maybe-applied command is pursued until ctx expiry); the field stays so that
// a later loosening of the budget rule shows up as a silent drop, which
// TestMegaload fails on.
type BudgetError struct {
	Attempts  int
	Ambiguous bool
}

func (e *BudgetError) Error() string {
	state := "provably not executed"
	if e.Ambiguous {
		state = "outcome ambiguous"
	}
	return fmt.Sprintf("client: retry budget exhausted after %d attempts (%s)", e.Attempts, state)
}

func (e *BudgetError) Is(target error) bool { return target == ErrBudgetExhausted }

// Directory is the process-wide service view shared by all sessions: one rpc
// peer (sessions multiplex over its per-server connections), one cached
// configuration + leader hint, one round-robin cursor. All methods are safe
// for concurrent use.
type Directory struct {
	peer  *rpc.Peer
	seeds []types.NodeID

	mu     sync.Mutex
	cfg    types.Config
	leader types.NodeID
	rr     int
	rng    *rand.Rand // shared jitter source: a rand.Rand is ~5KB, too big per session
	adopts int64
	closed bool
}

// NewDirectory creates a shared service view attached to the network via ep,
// knowing at least the seed nodes.
func NewDirectory(ep *transport.Endpoint, seeds []types.NodeID) *Directory {
	return &Directory{
		peer:  rpc.NewPeer(ep, reconfig.ControlStream, nil),
		seeds: types.CloneNodeIDs(seeds),
		rng:   rand.New(rand.NewSource(reconfig.SeedFor("client-directory"))),
	}
}

// Session creates a client session named id over this directory. Sessions
// are cheap — a couple hundred bytes, no transport state, no private rng —
// so one process can hold 100k of them.
func (d *Directory) Session(id types.NodeID, opts Options) *Client {
	return &Client{id: id, dir: d, opts: opts.withDefaults()}
}

// backoff draws one jittered delay from the shared source.
func (d *Directory) backoff(attempt int, base, max time.Duration) time.Duration {
	d.mu.Lock()
	defer d.mu.Unlock()
	return reconfig.BackoffDelay(attempt, base, max, d.rng)
}

// Close releases the directory's transport resources. Sessions created from
// it stop working.
func (d *Directory) Close() {
	d.mu.Lock()
	d.closed = true
	d.mu.Unlock()
	d.peer.Close()
}

// Stats returns a snapshot of the directory's counters.
func (d *Directory) Stats() DirectoryStats {
	d.mu.Lock()
	defer d.mu.Unlock()
	return DirectoryStats{Adopts: d.adopts}
}

// KnownConfig returns the cached configuration (zero before the first
// successful interaction).
func (d *Directory) KnownConfig() types.Config {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.cfg.Clone()
}

// nextTarget picks where to send the next attempt: the cached leader if it
// is still a member (used once; a failure falls back to rotation), else
// round-robin over the cached configuration, else the seeds.
func (d *Directory) nextTarget() types.NodeID {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.leader != "" && d.cfg.IsMember(d.leader) {
		lead := d.leader
		d.leader = ""
		return lead
	}
	pool := d.cfg.Members
	if len(pool) == 0 {
		pool = d.seeds
	}
	if len(pool) == 0 {
		return ""
	}
	d.rr++
	return pool[d.rr%len(pool)]
}

// observe folds hints from a reply into the shared cache. Adoption is
// generation-gated: a session reporting an older configuration than the
// cache never regresses it, and the adoption counter increments exactly once
// per generation no matter how many sessions race to report it.
func (d *Directory) observe(cfg types.Config, leader types.NodeID) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if cfg.ID > d.cfg.ID {
		d.cfg = cfg.Clone()
		d.adopts++
	}
	if leader != "" {
		d.leader = leader
	}
}

// Client is a session against the replicated service, multiplexed over its
// Directory's shared transport. A session's methods must not be called
// concurrently with each other (sequence numbers order its commands);
// distinct sessions are independent.
type Client struct {
	id   types.NodeID
	dir  *Directory
	opts Options

	mu     sync.Mutex
	ownDir bool // Close tears down dir too (New-created sessions)
	seq    uint64
	closed bool
	stats  Stats
}

// New creates a standalone client identified by id (its session name),
// attached to the network via ep, knowing at least the seed nodes. It owns a
// private Directory; use NewDirectory + Session to share one across
// sessions.
func New(id types.NodeID, ep *transport.Endpoint, seeds []types.NodeID, opts Options) *Client {
	c := NewDirectory(ep, seeds).Session(id, opts)
	c.ownDir = true
	return c
}

// Close releases the client's resources. A session created with New closes
// its private directory (and transport); a Directory-shared session only
// marks itself closed.
func (c *Client) Close() {
	c.mu.Lock()
	c.closed = true
	own := c.ownDir
	c.mu.Unlock()
	if own {
		c.dir.Close()
	}
}

// ID returns the client's session identifier.
func (c *Client) ID() types.NodeID { return c.id }

// Directory returns the shared service view this session routes through.
func (c *Client) Directory() *Directory { return c.dir }

// Stats returns a snapshot of the session's counters.
func (c *Client) Stats() Stats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.stats
}

// KnownConfig returns the directory's cached configuration.
func (c *Client) KnownConfig() types.Config { return c.dir.KnownConfig() }

// retryDelay computes the pause before the next attempt: jittered
// exponential backoff, floored by the server's RetryAfter hint when one was
// given.
func (c *Client) retryDelay(attempt int, hint time.Duration) time.Duration {
	return max(c.dir.backoff(attempt, c.opts.RetryBackoff, c.opts.RetryMax), hint)
}

// Submit executes op with a fresh sequence number, retrying across leader
// changes and reconfigurations until acknowledged, the retry budget runs
// out, or ctx expires.
func (c *Client) Submit(ctx context.Context, op []byte) ([]byte, error) {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return nil, ErrClosed
	}
	c.seq++
	seq := c.seq
	c.mu.Unlock()
	return c.SubmitSeq(ctx, seq, op)
}

// SubmitSeq executes op under an explicit sequence number. Re-invoking with
// the same seq is safe (at-most-once); it returns the original reply.
func (c *Client) SubmitSeq(ctx context.Context, seq uint64, op []byte) ([]byte, error) {
	cmd := types.Command{Kind: types.CmdApp, Client: c.id, Seq: seq, Data: op}
	req := reconfig.EncodeSubmitRequest(cmd)
	rec := c.opts.Recorder
	h := -1
	if rec != nil {
		h = rec.Invoke(c.id, seq, op)
	}
	// maybeApplied: true once some attempt's outcome is unknown (the call
	// errored, or the reply was undecodable). While false, every attempt
	// was answered with a redirect or a shed — the command provably never
	// executed, so giving up is a clean failure, not a silent drop.
	maybeApplied := false
	giveUp := func(err error) ([]byte, error) {
		if rec != nil {
			if maybeApplied {
				rec.Info(h)
			} else {
				rec.Fail(h)
			}
		}
		return nil, err
	}
	for attempt := 1; ; attempt++ {
		target := c.dir.nextTarget()
		if target == "" {
			return giveUp(fmt.Errorf("client: no known nodes"))
		}
		c.mu.Lock()
		c.stats.Attempts++
		c.mu.Unlock()

		var hint time.Duration
		resp, err := c.peer().CallWithin(ctx, target, req, resend, c.opts.AttemptTimeout)
		if err != nil {
			maybeApplied = true // the command may have reached the node
		} else if res, derr := reconfig.DecodeSubmitResult(resp); derr != nil {
			maybeApplied = true
		} else {
			c.dir.observe(res.Config, res.Leader)
			switch res.Status {
			case reconfig.SubmitApplied:
				c.mu.Lock()
				c.stats.Submits++
				c.mu.Unlock()
				if rec != nil {
					rec.Ok(h, res.Reply)
				}
				return res.Reply, nil
			case reconfig.SubmitRedirect:
				c.mu.Lock()
				c.stats.Redirects++
				c.mu.Unlock()
			case reconfig.SubmitBusy:
				c.mu.Lock()
				c.stats.Busy++
				c.mu.Unlock()
				hint = res.RetryAfter
			default:
				maybeApplied = true // unknown status: assume the worst
			}
		}
		// The budget bounds clean refusals only: a maybe-applied command is
		// pursued (same seq, dedup-idempotent) until a definitive reply or
		// ctx expiry — abandoning it here would be a silent drop.
		if c.opts.RetryBudget > 0 && attempt >= c.opts.RetryBudget && !maybeApplied {
			return giveUp(&BudgetError{Attempts: attempt, Ambiguous: maybeApplied})
		}
		select {
		case <-ctx.Done():
			if rec != nil {
				if maybeApplied {
					rec.Info(h)
				} else {
					rec.Fail(h)
				}
			}
			return nil, ctx.Err()
		case <-time.After(c.retryDelay(attempt, hint)):
		}
	}
}

func (c *Client) peer() *rpc.Peer { return c.dir.peer }

// Read executes a read-only op. The wire protocol is the same as Submit —
// the service classifies read-only ops and serves them through the read
// fast path when one is enabled — so Read is Submit plus read accounting.
// The leader hint cached from each reply keeps consecutive reads targeted
// at the node that can serve them without a log append.
func (c *Client) Read(ctx context.Context, op []byte) ([]byte, error) {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return nil, ErrClosed
	}
	c.seq++
	seq := c.seq
	c.mu.Unlock()
	return c.ReadSeq(ctx, seq, op)
}

// ReadSeq executes a read-only op under an explicit sequence number.
func (c *Client) ReadSeq(ctx context.Context, seq uint64, op []byte) ([]byte, error) {
	reply, err := c.SubmitSeq(ctx, seq, op)
	if err == nil {
		c.mu.Lock()
		c.stats.Reads++
		c.mu.Unlock()
	}
	return reply, err
}

// Locate queries any reachable node for the current configuration.
func (c *Client) Locate(ctx context.Context) (types.Config, error) {
	req := reconfig.EncodeLocateRequest()
	for attempt := 1; ; attempt++ {
		target := c.dir.nextTarget()
		if target == "" {
			return types.Config{}, fmt.Errorf("client: no known nodes")
		}
		resp, err := c.peer().CallWithin(ctx, target, req, resend, c.opts.AttemptTimeout)
		if err == nil {
			if res, derr := reconfig.DecodeLocateResult(resp); derr == nil && res.Config.ID != 0 {
				c.dir.observe(res.Config, res.Leader)
				return res.Config, nil
			}
		}
		select {
		case <-ctx.Done():
			return types.Config{}, ctx.Err()
		case <-time.After(c.retryDelay(attempt, 0)):
		}
	}
}

// Reconfigure asks the service (via any member) to change membership.
func (c *Client) Reconfigure(ctx context.Context, members []types.NodeID) (types.Config, error) {
	req := reconfig.EncodeReconfigRequest(members)
	for attempt := 1; ; attempt++ {
		target := c.dir.nextTarget()
		if target == "" {
			return types.Config{}, fmt.Errorf("client: no known nodes")
		}
		// Reconfiguration includes consensus + transfer: allow a longer
		// attempt than a plain submit.
		resp, err := c.peer().CallWithin(ctx, target, req, resend, 4*c.opts.AttemptTimeout)
		if err == nil {
			if res, derr := reconfig.DecodeReconfigResult(resp); derr == nil {
				if res.OK {
					c.dir.observe(res.Config, "")
					return res.Config, nil
				}
				// Not-serving nodes report a reason; rotate and retry.
			}
		}
		select {
		case <-ctx.Done():
			return types.Config{}, ctx.Err()
		case <-time.After(c.retryDelay(attempt, 0)):
		}
	}
}

// Chain fetches the configuration chain from any reachable node.
func (c *Client) Chain(ctx context.Context) (reconfig.ChainResult, error) {
	req := reconfig.EncodeChainRequest()
	for attempt := 1; ; attempt++ {
		target := c.dir.nextTarget()
		if target == "" {
			return reconfig.ChainResult{}, fmt.Errorf("client: no known nodes")
		}
		resp, err := c.peer().CallWithin(ctx, target, req, resend, c.opts.AttemptTimeout)
		if err == nil {
			if res, derr := reconfig.DecodeChainResult(resp); derr == nil {
				return res, nil
			}
		}
		select {
		case <-ctx.Done():
			return reconfig.ChainResult{}, ctx.Err()
		case <-time.After(c.retryDelay(attempt, 0)):
		}
	}
}
