package transport

import (
	"context"
	"fmt"
	"sync"
)

// Mux demultiplexes inbound messages to handlers by action, so several
// protocols (gossip engine, membership, application) can share one endpoint.
type Mux struct {
	mu       sync.RWMutex
	handlers map[string]Handler
}

// NewMux returns an empty mux.
func NewMux() *Mux {
	return &Mux{handlers: make(map[string]Handler)}
}

// Handle binds action to h, replacing any previous binding.
func (m *Mux) Handle(action string, h Handler) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.handlers[action] = h
}

// Dispatch routes msg to the handler registered for its action.
func (m *Mux) Dispatch(ctx context.Context, msg Message) error {
	m.mu.RLock()
	h, ok := m.handlers[msg.Action]
	m.mu.RUnlock()
	if !ok {
		return fmt.Errorf("transport: no handler for action %q", msg.Action)
	}
	return h(ctx, msg)
}

// Bind installs the mux as the endpoint's handler.
func (m *Mux) Bind(ep Endpoint) {
	ep.SetHandler(m.Dispatch)
}
