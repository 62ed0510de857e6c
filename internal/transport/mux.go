package transport

import (
	"context"
	"fmt"
	"slices"
	"sync"
)

// Mux demultiplexes inbound messages to handlers by action, so several
// protocols (gossip engine, membership, application) can share one endpoint.
//
// Each binding is a route: one handler for one action (Handle) or for a list
// of actions (Route). A protocol that owns several actions binds them as one
// route, one handler that switches on msg.Action, so a node's wiring costs a
// few heap objects however many actions it serves: at simulated scale, where
// every node has a Mux of its own, a map and a closure per action cost
// hundreds of bytes a node.
// The newest route naming an action wins, and a binding drops every older
// route it covers, so re-binding replaces and never accumulates.
type Mux struct {
	mu     sync.RWMutex
	routes []route // oldest first
}

// route binds its actions to one handler.
type route struct {
	actions []string
	h       Handler
}

// covers reports whether r names every action n names.
func (r *route) covers(n *route) bool {
	for _, a := range n.actions {
		if !slices.Contains(r.actions, a) {
			return false
		}
	}
	return true
}

// NewMux returns an empty mux.
func NewMux() *Mux {
	return &Mux{}
}

// Handle binds action to h, replacing any previous binding of it; the other
// actions of a Route naming it keep theirs.
func (m *Mux) Handle(action string, h Handler) {
	m.bind(route{actions: []string{action}, h: h})
}

// Route binds every action in actions to h, replacing any previous binding of
// them. actions is kept, not copied: pass a list that never changes, such as
// a package-level one.
func (m *Mux) Route(actions []string, h Handler) {
	m.bind(route{actions: actions, h: h})
}

func (m *Mux) bind(r route) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.routes = slices.DeleteFunc(m.routes, func(old route) bool { return r.covers(&old) })
	m.routes = append(m.routes, r)
}

// Dispatch routes msg to the handler registered for its action.
func (m *Mux) Dispatch(ctx context.Context, msg Message) error {
	m.mu.RLock()
	var h Handler
	for i := len(m.routes) - 1; i >= 0; i-- {
		if slices.Contains(m.routes[i].actions, msg.Action) {
			h = m.routes[i].h
			break
		}
	}
	m.mu.RUnlock()
	if h == nil {
		return fmt.Errorf("transport: no handler for action %q", msg.Action)
	}
	return h(ctx, msg)
}

// Bind installs the mux as the endpoint's handler.
func (m *Mux) Bind(ep Endpoint) {
	ep.SetHandler(m.Dispatch)
}
