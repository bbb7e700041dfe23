// Package chaos kills, stalls and restarts pastix-serve nodes behind the HA
// gateway on a seeded, replayable schedule. It follows the internal/faults
// discipline: every chaotic decision — which node dies, when, for how long —
// is a pure function of (seed, event index) through the splitmix64 counter
// hash, so a failing soak replays exactly from its seed.
//
// Nodes are real service.Servers behind in-process HTTP listeners. A kill is
// a connection abort (the TCP-level death a client of a SIGKILLed process
// sees), not a clean 5xx. A restart swaps in a fresh server: without a data
// dir its stores come back empty and the gateway must discover stale handles
// via 404 failover; with one (Config.DataDir set, split per node by
// NewCluster) the new process replays its journal and accepted handles
// survive the kill.
//
// The harness is test code: this package's soaks are its only callers.
package chaos

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sort"
	"sync/atomic"
	"time"

	"github.com/pastix-go/pastix/internal/gateway/client"
	"github.com/pastix-go/pastix/internal/service"
)

// EventKind is what happens to a node at a plan point.
type EventKind int

const (
	// Kill aborts every connection to the node until it restarts.
	Kill EventKind = iota
	// Restart brings a killed node back with a FRESH service — empty factor
	// store, empty caches — as a real process restart would.
	Restart
	// StallEvent delays the node's request handling, simulating overload.
	StallEvent
)

func (k EventKind) String() string {
	switch k {
	case Kill:
		return "kill"
	case Restart:
		return "restart"
	default:
		return "stall"
	}
}

// Event is one scheduled fault.
type Event struct {
	At    time.Duration // offset from Apply start
	Node  int
	Kind  EventKind
	Stall time.Duration // StallEvent only
}

// Plan is a seeded, replayable fault schedule, sorted by At.
type Plan struct {
	Seed   int64
	Events []Event
}

// rnd draws a deterministic uniform in [0,1) for (seed, label): the
// counter-based PRNG discipline, with no shared stream state.
func rnd(seed int64, label string) float64 {
	h := client.Key(fmt.Sprintf("chaos/%d/%s", seed, label))
	return float64(h>>11) / (1 << 53)
}

// pick draws a deterministic integer in [0, n).
func pick(seed int64, label string, n int) int {
	return int(rnd(seed, label) * float64(n))
}

// NewPlan derives a kill/restart schedule: kills node-kill events spread
// across span, each victim chosen by hash, each down for a hashed fraction
// of the remaining span before its restart. Optional stalls jitter other
// nodes while a victim is down.
func NewPlan(seed int64, nodes, kills int, span time.Duration, stalls bool) Plan {
	p := Plan{Seed: seed}
	for k := 0; k < kills; k++ {
		victim := pick(seed, fmt.Sprintf("victim/%d", k), nodes)
		// Kill somewhere in the middle half of this kill's slice of the span,
		// so load exists both before and after.
		slice := span / time.Duration(kills)
		at := time.Duration(float64(slice) * (float64(k) + 0.25 + 0.5*rnd(seed, fmt.Sprintf("at/%d", k))))
		downFor := time.Duration(float64(slice) * (0.2 + 0.3*rnd(seed, fmt.Sprintf("down/%d", k))))
		p.Events = append(p.Events,
			Event{At: at, Node: victim, Kind: Kill},
			Event{At: at + downFor, Node: victim, Kind: Restart},
		)
		if stalls && nodes > 1 {
			other := (victim + 1 + pick(seed, fmt.Sprintf("stall-node/%d", k), nodes-1)) % nodes
			p.Events = append(p.Events, Event{
				At:    at + downFor/2,
				Node:  other,
				Kind:  StallEvent,
				Stall: time.Duration(float64(20*time.Millisecond) * rnd(seed, fmt.Sprintf("stall-len/%d", k))),
			})
		}
	}
	sort.SliceStable(p.Events, func(i, j int) bool { return p.Events[i].At < p.Events[j].At })
	return p
}

// Node is one backend under chaos: a live service.Server whose front door
// can abort, stall, or come back empty.
type Node struct {
	idx     int
	cfg     service.Config
	ts      *httptest.Server
	svc     atomic.Value // *service.Server
	handler atomic.Value // http.Handler
	down    atomic.Bool
	stallNS atomic.Int64
}

// URL is the node's base URL for the gateway's backend list.
func (n *Node) URL() string { return n.ts.URL }

// Kill makes every connection abort, as to a dead process.
func (n *Node) Kill() { n.down.Store(true) }

// Down reports whether the node is currently killed.
func (n *Node) Down() bool { return n.down.Load() }

// Stall sets a handling delay (0 clears it).
func (n *Node) Stall(d time.Duration) { n.stallNS.Store(int64(d)) }

// Restart replaces the service with a fresh one at the same URL and clears
// the kill — a new process instance. Without a data dir all prior state —
// factors, caches, idempotency records — is gone; with one, the journal
// replays it. The old service closes before the new one opens so the
// journal file hands over cleanly, as between a dying and a starting
// process sharing a disk.
func (n *Node) Restart() error {
	old := n.svc.Load().(*service.Server)
	old.Close()
	svc, err := service.New(n.cfg)
	if err != nil {
		return err
	}
	n.svc.Store(svc)
	n.handler.Store(svc.Handler())
	n.down.Store(false)
	return nil
}

// LiveFactors asks the node's /readyz how many factors it holds.
func (n *Node) LiveFactors() (int, error) {
	resp, err := http.Get(n.ts.URL + "/readyz")
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	var st service.ReadyState
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		return 0, err
	}
	return st.LiveFactors, nil
}

func (n *Node) close() {
	n.ts.Close()
	n.svc.Load().(*service.Server).Close()
}

// Cluster is a set of chaos nodes plus the plan runner.
type Cluster struct {
	Nodes []*Node
}

// NewCluster starts n nodes, each its own service.Server. When cfg.DataDir
// is set, each node gets its own subdirectory of it — nodes are separate
// processes with separate disks, and a restart must replay only that node's
// journal.
func NewCluster(n int, cfg service.Config) (*Cluster, error) {
	c := &Cluster{}
	for i := 0; i < n; i++ {
		ncfg := cfg
		if cfg.DataDir != "" {
			ncfg.DataDir = filepath.Join(cfg.DataDir, fmt.Sprintf("node-%d", i))
			if err := os.MkdirAll(ncfg.DataDir, 0o755); err != nil {
				c.Close()
				return nil, err
			}
		}
		svc, err := service.New(ncfg)
		if err != nil {
			c.Close()
			return nil, err
		}
		nd := &Node{idx: i, cfg: ncfg}
		nd.svc.Store(svc)
		nd.handler.Store(svc.Handler())
		nd.ts = httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			if nd.down.Load() {
				panic(http.ErrAbortHandler)
			}
			if d := nd.stallNS.Load(); d > 0 {
				time.Sleep(time.Duration(d))
			}
			nd.handler.Load().(http.Handler).ServeHTTP(w, r)
		}))
		c.Nodes = append(c.Nodes, nd)
	}
	return c, nil
}

// URLs returns the backend list for gateway.Config.
func (c *Cluster) URLs() []string {
	urls := make([]string, len(c.Nodes))
	for i, n := range c.Nodes {
		urls[i] = n.URL()
	}
	return urls
}

// Close stops every node.
func (c *Cluster) Close() {
	for _, n := range c.Nodes {
		n.close()
	}
}

// Apply replays the plan against the cluster in real time, blocking until
// the last event fired or ctx ended. It returns the events applied.
func (c *Cluster) Apply(ctx context.Context, plan Plan) ([]Event, error) {
	start := time.Now()
	var applied []Event
	for _, ev := range plan.Events {
		if ev.Node < 0 || ev.Node >= len(c.Nodes) {
			return applied, fmt.Errorf("chaos: event node %d out of range", ev.Node)
		}
		wait := ev.At - time.Since(start)
		if wait > 0 {
			t := time.NewTimer(wait)
			select {
			case <-t.C:
			case <-ctx.Done():
				t.Stop()
				return applied, ctx.Err()
			}
		}
		n := c.Nodes[ev.Node]
		switch ev.Kind {
		case Kill:
			n.Kill()
		case Restart:
			if err := n.Restart(); err != nil {
				return applied, err
			}
		case StallEvent:
			n.Stall(ev.Stall)
		}
		applied = append(applied, ev)
	}
	return applied, nil
}
