package simnet

import (
	"context"
	"io"
	"net/http"
	"testing"

	"repro/internal/gen"
	"repro/internal/instance"
	"repro/internal/sim"
)

func TestMemoryTransportRoutesByHost(t *testing.T) {
	net := instance.NewNetwork()
	net.Add(instance.Config{Domain: "a.test"})
	cli := &http.Client{Transport: &MemoryTransport{Handler: net}}

	resp, err := cli.Get("http://a.test/api/v1/instance")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != 200 || len(body) == 0 {
		t.Fatalf("status %d body %q", resp.StatusCode, body)
	}
	resp, err = cli.Get("http://nowhere.test/")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadGateway {
		t.Fatalf("unknown host status %d", resp.StatusCode)
	}
}

func TestInjectorRepliesTraceBits(t *testing.T) {
	net := instance.NewNetwork()
	a := net.Add(instance.Config{Domain: "a.test"})
	b := net.Add(instance.Config{Domain: "b.test"})
	ts := sim.NewTraceSet(2, 1, 288)
	ts.Traces[0].SetDownRange(10, 20) // a.test down in slots [10,20)
	inj := NewInjector(net, []string{"a.test", "b.test"}, ts)

	inj.Apply(15)
	if a.Online() || !b.Online() {
		t.Fatalf("slot 15: a=%v b=%v", a.Online(), b.Online())
	}
	inj.Apply(25)
	if !a.Online() || !b.Online() {
		t.Fatalf("slot 25: a=%v b=%v", a.Online(), b.Online())
	}
	if inj.Slot() != 25 {
		t.Fatalf("slot = %d", inj.Slot())
	}
	// Slots beyond the trace leave instances up.
	inj.Apply(10_000)
	if !a.Online() {
		t.Fatal("out-of-range slot took a.test down")
	}
}

func TestInjectorMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewInjector(instance.NewNetwork(), []string{"a"}, sim.NewTraceSet(2, 1, 288))
}

func TestHarnessServesWorld(t *testing.T) {
	cfg := gen.TinyConfig(3)
	cfg.Instances = 8
	cfg.Users = 60
	cfg.Days = 5
	w := gen.Generate(cfg)
	h, err := New(context.Background(), w, Options{MaxTootsPerUser: 2, Retries: 1})
	if err != nil {
		t.Fatal(err)
	}
	if got := len(h.Net.Domains()); got != 8 {
		t.Fatalf("domains = %d", got)
	}
	body, err := h.Client.GetChecked(context.Background(), w.Instances[0].Domain, "/api/v1/instance", nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(body) == 0 {
		t.Fatal("empty instance document")
	}
}
