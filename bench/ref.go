package main

import (
	"io"
	"math"
	"net"
	"sync"
	"time"
)

// The box this benchmark is calibrated on does not hold its speed: with
// the same binary and the same inputs, every workload's ops/s wanders by
// ±10–15% over minutes (other tenants of the host; steal time reads 0, so
// it is the memory system and the sibling threads they load). No length of
// run and no estimator inside a run removes a drift that slow. What does
// is to measure the box while measuring the program: the timed phase is cut
// into slices, and after each slice the same C cores run a fixed reference
// — an integer loop, random reads over a 32 MB table, round trips over a
// loopback TCP connection: the processor, the memory system and the
// kernel's network path, which are what the workloads use. The reference
// imports nothing from the repository, so no change to the program can move
// it. A run's speed is the geometric mean of the three rates, each as a
// share of its nominal rate, and ops_per_ref_s is ops/s divided by it:
// throughput on a box running at nominal speed. README.md has the numbers
// that justify it.
type reference struct {
	table []uint64
	ln    net.Listener
	conns []net.Conn // client ends, one per worker
	echo  sync.WaitGroup

	work [3]float64 // iterations done, per loop
	time [3]float64 // seconds spent, per loop
}

// Nominal rates per worker, iterations a second: round numbers near what
// the calibration box does on a good minute. They only fix the unit.
var nominal = [3]float64{450e6, 450e6, 60e3}

const refSlice = 50 * time.Millisecond // per loop, after each slice of the timed phase

func newReference() (*reference, error) {
	r := &reference{table: make([]uint64, 4<<20)}
	for i := range r.table {
		r.table[i] = uint64(i) * 0x9E3779B97F4A7C15
	}
	var err error
	if r.ln, err = net.Listen("tcp", "127.0.0.1:0"); err != nil {
		return nil, err
	}
	for i := 0; i < cores(); i++ {
		c, err := net.Dial("tcp", r.ln.Addr().String())
		if err != nil {
			r.close()
			return nil, err
		}
		r.conns = append(r.conns, c)
		peer, err := r.ln.Accept()
		if err != nil {
			r.close()
			return nil, err
		}
		r.echo.Add(1)
		go func() {
			defer r.echo.Done()
			defer peer.Close()
			_, _ = io.Copy(peer, peer) // ends when the client end closes
		}()
	}
	return r, nil
}

func (r *reference) close() {
	for _, c := range r.conns {
		c.Close()
	}
	r.ln.Close()
	r.echo.Wait()
}

// measure runs the three loops, refSlice each, on C goroutines, and
// returns the speed over just this call.
func (r *reference) measure() float64 {
	work, spent := r.work, r.time
	r.loop(0, func(int) (float64, uint64) {
		x := uint64(88172645463325252)
		for i := 0; i < 20000; i++ {
			x ^= x << 13
			x ^= x >> 7
			x ^= x << 17
		}
		return 20000, x
	})
	mask := uint64(len(r.table) - 1)
	r.loop(1, func(wi int) (float64, uint64) {
		idx, sum := uint64(wi)*7919, uint64(0)
		for i := 0; i < 2000; i++ {
			idx = idx*2862933555777941757 + 3037000493
			sum += r.table[(idx>>20)&mask]
		}
		return 2000, sum
	})
	r.loop(2, func(wi int) (float64, uint64) {
		var buf [64]byte
		for i := 0; i < 20; i++ {
			if _, err := r.conns[wi].Write(buf[:]); err != nil {
				return 0, 0
			}
			if _, err := io.ReadFull(r.conns[wi], buf[:]); err != nil {
				return 0, 0
			}
		}
		return 20, 0
	})
	return speedOf(r.work, r.time, work, spent)
}

var refSink uint64 // keeps the loops' results alive

func (r *reference) loop(which int, chunk func(wi int) (float64, uint64)) {
	done := make([]float64, cores())
	sums := make([]uint64, cores())
	start := time.Now()
	var wg sync.WaitGroup
	for wi := range done {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for time.Since(start) < refSlice {
				n, x := chunk(wi)
				done[wi] += n
				sums[wi] += x
			}
		}()
	}
	wg.Wait()
	r.time[which] += time.Since(start).Seconds()
	for wi := range done {
		r.work[which] += done[wi]
		refSink += sums[wi]
	}
}

// speed is how fast the box ran the reference over the whole run, 1 being
// nominal.
func (r *reference) speed() float64 {
	return speedOf(r.work, r.time, [3]float64{}, [3]float64{})
}

func speedOf(work, spent, work0, spent0 [3]float64) float64 {
	product := 1.0
	for i := range work {
		product *= (work[i] - work0[i]) / (spent[i] - spent0[i]) / float64(cores()) / nominal[i]
	}
	return math.Cbrt(product)
}
