package gossip

import (
	"context"
	"fmt"
	"testing"
	"time"

	"wsgossip/internal/simnet"
	"wsgossip/internal/transport"
)

// TestPushDrawOrderPinned runs the scale path's shape (push engines with
// per-node compact RNGs on a lossy simnet, overlapping epidemics) at 2,000
// nodes and compares every counter against constants recorded from the commit
// before the binary wire form and the fire-and-forget delivery landed. A moved
// RNG draw, a reordered timer or a changed duplicate decision shifts at least
// one of them; only Stats.Bytes may differ across wire forms, so it is not
// pinned.
func TestPushDrawOrderPinned(t *testing.T) {
	const (
		nodes  = 2000
		seed   = 20241
		events = 3
	)
	cfg := simnet.DefaultConfig(seed)
	cfg.LossRate = 0.01
	net := simnet.New(cfg)
	addrs := make([]string, nodes)
	for i := range addrs {
		addrs[i] = fmt.Sprintf("n%04d", i)
	}
	peers := NewUniformPeers(addrs)
	engines := make([]*Engine, nodes)
	for i, a := range addrs {
		eng, err := New(Config{
			Style: StylePush, Fanout: 3, Hops: 13,
			Endpoint:      net.Node(a),
			Peers:         peers,
			RNG:           simnet.NewCompactRNG(seed*7919 + int64(i)),
			SeenCacheSize: 256,
			StoreSize:     64,
		})
		if err != nil {
			t.Fatal(err)
		}
		mux := transport.NewMux()
		eng.Register(mux)
		mux.Bind(net.Node(a))
		engines[i] = eng
	}
	for k := 0; k < events; k++ {
		k := k
		net.AfterFunc(time.Duration(k)*2*time.Millisecond, func() {
			origin := (k + 1) * (nodes / (events + 1))
			if _, err := engines[origin].Publish(context.Background(), []byte(fmt.Sprint("event ", k))); err != nil {
				t.Error(err)
			}
		})
	}
	net.Run()

	var got Stats
	for _, e := range engines {
		st := e.Stats()
		got.Delivered += st.Delivered
		got.Duplicates += st.Duplicates
		got.Forwarded += st.Forwarded
	}
	want := Stats{Delivered: pinDelivered, Duplicates: pinDuplicates, Forwarded: pinForwarded}
	if got != want {
		t.Errorf("engine totals = %+v, want %+v", got, want)
	}
	ns := net.Stats()
	if ns.Sent != pinSent || ns.Dropped != pinDropped || ns.Delivered != pinNetDelivered {
		t.Errorf("simnet sent/dropped/delivered = %d/%d/%d, want %d/%d/%d",
			ns.Sent, ns.Dropped, ns.Delivered, pinSent, pinDropped, pinNetDelivered)
	}
}

// Recorded at commit 69b3256 (JSON wire form, closure-scheduled deliveries).
const (
	pinDelivered    = 5625
	pinDuplicates   = 11093
	pinForwarded    = 16860
	pinSent         = 16860
	pinDropped      = 145
	pinNetDelivered = 16715
)
