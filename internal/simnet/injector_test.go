package simnet

import (
	"io"
	"net/http"
	"testing"

	"repro/internal/dataset"
	"repro/internal/instance"
	"repro/internal/sim"
	"repro/internal/vclock"
)

func injectorFixture(t *testing.T, n, slots int) (*instance.Network, []string, *sim.TraceSet) {
	t.Helper()
	net := instance.NewNetwork()
	domains := make([]string, n)
	for i := range domains {
		domains[i] = "inj" + string(rune('a'+i)) + ".test"
		net.Add(instance.Config{Domain: domains[i], Software: "mastodon"})
	}
	ts := sim.NewTraceSet(n, 1, slots)
	return net, domains, ts
}

func TestInjectorOverlayORsOntoBase(t *testing.T) {
	net, domains, ts := injectorFixture(t, 3, 10)
	ts.Traces[0].SetDownRange(2, 4) // base outage on instance 0
	inj := NewInjector(net, domains, ts)

	overlay := sim.NewTraceSet(3, 1, 10)
	overlay.Traces[1].SetDownRange(3, 6) // storm on instance 1
	overlay.Traces[0].SetDownRange(5, 7) // storm extends instance 0's trouble
	inj.SetOverlay(overlay)

	wantDown := map[int][]bool{
		//        slot: 0      1      2     3     4      5     6
		0: {false, false, true, true, false, true, true},
		1: {false, false, false, true, true, true, false},
		2: {false, false, false, false, false, false, false},
	}
	for slot := 0; slot < 7; slot++ {
		inj.Apply(slot)
		for i, d := range domains {
			if got, want := !net.Server(d).Online(), wantDown[i][slot]; got != want {
				t.Fatalf("slot %d instance %d: down=%v, want %v", slot, i, got, want)
			}
		}
	}

	// Clearing the overlay restores pure base-trace behaviour.
	inj.SetOverlay(nil)
	inj.Apply(5)
	if !net.Server(domains[0]).Online() || !net.Server(domains[1]).Online() {
		t.Fatal("cleared overlay still takes servers down")
	}
}

func TestInjectorOverlaySizeMismatchPanics(t *testing.T) {
	net, domains, ts := injectorFixture(t, 2, 5)
	inj := NewInjector(net, domains, ts)
	defer func() {
		if recover() == nil {
			t.Fatal("mismatched overlay did not panic")
		}
	}()
	inj.SetOverlay(sim.NewTraceSet(3, 1, 5))
}

func TestInjectorKillPinsDown(t *testing.T) {
	net, domains, ts := injectorFixture(t, 2, 10)
	inj := NewInjector(net, domains, ts)

	inj.Apply(0)
	if !net.Server(domains[0]).Online() {
		t.Fatal("instance down before its kill")
	}
	inj.Kill(domains[0])
	if net.Server(domains[0]).Online() {
		t.Fatal("Kill did not take the server offline immediately")
	}
	if !inj.Killed(domains[0]) || inj.Killed(domains[1]) {
		t.Fatal("Killed bookkeeping wrong")
	}
	// The base trace says "up" at every slot, but the kill pins it down.
	for slot := 1; slot < 5; slot++ {
		inj.Apply(slot)
		if net.Server(domains[0]).Online() {
			t.Fatalf("killed server resurrected at slot %d", slot)
		}
		if !net.Server(domains[1]).Online() {
			t.Fatalf("unkilled server down at slot %d", slot)
		}
	}
}

func TestInjectorKillUntracedDomain(t *testing.T) {
	net, domains, ts := injectorFixture(t, 1, 5)
	inj := NewInjector(net, domains, ts)

	// A domain outside the trace population (registered mid-campaign).
	late := net.Add(instance.Config{Domain: "late.test", Software: "mastodon"})
	inj.Kill("late.test")
	if late.Online() {
		t.Fatal("untraced kill did not take the server offline")
	}
	inj.Apply(3)
	if late.Online() {
		t.Fatal("Apply resurrected an untraced killed server")
	}
	if !inj.Killed("late.test") {
		t.Fatal("untraced kill not recorded")
	}
}

// TestInjectorKillBeatsFlapAndOverlay pins the precedence between the three
// availability controls when they all touch the same domain: a flapping
// fault schedule (transport layer) lets every other request through, but a
// Kill (server layer) makes the domain unreachable no matter what the flap
// parity says, and installing an overlay afterwards must not resurrect the
// killed server — overlays only ever add downtime.
func TestInjectorKillBeatsFlapAndOverlay(t *testing.T) {
	net, domains, ts := injectorFixture(t, 2, 12)
	clk := vclock.NewElastic(dataset.Day(0))
	ft := NewFaultTransport(&MemoryTransport{Handler: net}, clk)
	inj := NewInjector(net, domains, ts)

	// A flap covering the whole window on domain 0, with hits left to spend.
	fs := &sim.FaultSet{Slots: 12, SlotsPerDay: 12, Faults: [][]sim.Fault{
		{{Kind: sim.FaultFlap, Start: 0, End: 12, Hits: 2}},
		nil,
	}}
	inj.BindFaults(ft, fs)

	cli := &http.Client{Transport: ft}
	get := func() (int, error) {
		resp, err := cli.Get("http://" + domains[0] + "/api/v1/instance")
		if err != nil {
			return 0, err
		}
		defer resp.Body.Close()
		if _, err := io.ReadAll(resp.Body); err != nil {
			return resp.StatusCode, err
		}
		return resp.StatusCode, nil
	}

	// Flap behaviour on a live server: first request torn, second clean.
	inj.Apply(0)
	if code, err := get(); err == nil {
		t.Fatalf("flap did not bite the first request (status %d)", code)
	}
	if code, err := get(); err != nil || code != http.StatusOK {
		t.Fatalf("flap bit the second request too: status %d, err %v", code, err)
	}

	// Kill wins: the flap would let alternate requests through, but the
	// server behind them is gone, so nothing succeeds.
	inj.Kill(domains[0])
	for i := 0; i < 4; i++ {
		if code, err := get(); err == nil && code == http.StatusOK {
			t.Fatalf("request %d to a killed domain succeeded", i)
		}
	}

	// An overlay installed after the kill — marking only domain 1 down —
	// must not resurrect domain 0 at the next Apply.
	overlay := sim.NewTraceSet(2, 1, 12)
	overlay.Traces[1].SetDownRange(1, 3)
	inj.SetOverlay(overlay)
	inj.Apply(1)
	if net.Server(domains[0]).Online() {
		t.Fatal("overlay Apply resurrected a killed server")
	}
	if code, err := get(); err == nil && code == http.StatusOK {
		t.Fatal("request to a killed domain succeeded after overlay Apply")
	}
	if net.Server(domains[1]).Online() {
		t.Fatal("overlay did not take its own domain down")
	}
}
