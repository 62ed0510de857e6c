package experiments

import (
	"context"
	"strconv"

	"wsgossip/internal/transport"
)

// The ACK-based reliable multicast E4 compares pbcast with: its sender
// multicasts one message, then holds the stream until every member has
// acknowledged it (stop-and-wait group flow control, the behaviour Birman et
// al. show collapsing under perturbation). A body is the message's sequence
// number in decimal; a member acknowledges by echoing it to the sender.
const (
	actionAckData = "urn:wsgossip:ackmc:data"
	actionAck     = "urn:wsgossip:ackmc:ack"
)

// ackSender is the comparator's sender. Like every simnet protocol it runs
// on the network's event loop and takes no lock.
type ackSender struct {
	ep        transport.Endpoint
	members   []string
	seq       uint64          // the message in flight, or the last one sent
	acked     map[string]bool // members that acked seq; nil once it completed
	completed uint64
	onDone    func()
}

// newAckSender binds a sender to the given members on ep.
func newAckSender(ep transport.Endpoint, members []string) *ackSender {
	s := &ackSender{ep: ep, members: members}
	mux := transport.NewMux()
	mux.Handle(actionAck, s.handleAck)
	mux.Bind(ep)
	return s
}

// bindAckMember makes ep a member: it acknowledges every message to its
// sender.
func bindAckMember(ep transport.Endpoint) {
	mux := transport.NewMux()
	mux.Handle(actionAckData, func(ctx context.Context, msg transport.Message) error {
		// Echoing msg.Body is within the handler's lease on it: Send copies
		// what it delivers, so the ack does not outlive the buffer.
		return ep.Send(ctx, transport.Message{To: msg.From, Action: actionAck, Body: msg.Body})
	})
	mux.Bind(ep)
}

// multicast sends the next message to every member and starts collecting
// its acks. The caller keeps to stop-and-wait by sending the next message
// only from onDone.
func (s *ackSender) multicast(ctx context.Context) {
	s.seq++
	s.acked = make(map[string]bool, len(s.members))
	body := strconv.AppendUint(nil, s.seq, 10)
	for _, m := range s.members {
		_ = s.ep.Send(ctx, transport.Message{To: m, Action: actionAckData, Body: body})
	}
}

func (s *ackSender) handleAck(_ context.Context, msg transport.Message) error {
	seq, err := strconv.ParseUint(string(msg.Body), 10, 64)
	if err != nil {
		return err
	}
	if seq != s.seq || s.acked == nil {
		return nil
	}
	s.acked[msg.From] = true
	if len(s.acked) < len(s.members) {
		return nil
	}
	s.acked = nil
	s.completed++
	if s.onDone != nil {
		s.onDone()
	}
	return nil
}
