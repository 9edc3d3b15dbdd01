package main

// The wire gate is the A/B harness for the two V2I frame codecs: the
// newline-delimited JSON wire (the default) and the length-prefixed
// binary wire with coalesced QuoteBatch quote broadcasts. It reports
// three measurements:
//
//   - codec: encode and decode ns/op and bytes/frame for a
//     representative C-section quote on each codec, the binary codec's
//     steady-state allocs/op (encode and decode), and the JSON send
//     path's pooled-vs-legacy allocation delta;
//   - broadcast: the bytes needed to deliver one round of quotes to N
//     vehicles — N unicast JSON Quote frames vs N binary QuoteBatch
//     frames sharing the section-totals payload with the own row
//     elided;
//   - game: the same N-vehicle pricing game run end to end over both
//     wires (connection-backed pipe pairs), with wall clock, per-round
//     latency, and the resulting welfare compared bit for bit.
//
// Its checks: the binary codec is at least 3× JSON on both encode and
// decode, its encode and decode are allocation-free, the batched
// broadcast costs at most half the unicast bytes, and the two wires'
// welfare agrees to the last bit. CI runs it under -race.
//
//	olevgrid-bench wire [-n 1000] [-c 20] [-parallel 1] [-tol 1e-3] [-rounds 300] [-o BENCH_wire.json] [-check]

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"net"
	"sync"
	"testing"
	"time"

	"olevgrid/internal/core"
	"olevgrid/internal/sched"
	"olevgrid/internal/v2i"
)

type codecBench struct {
	JSONEncodeNsOp float64 `json:"json_encode_ns_op"`
	JSONDecodeNsOp float64 `json:"json_decode_ns_op"`
	BinEncodeNsOp  float64 `json:"bin_encode_ns_op"`
	BinDecodeNsOp  float64 `json:"bin_decode_ns_op"`
	EncodeSpeedup  float64 `json:"encode_speedup"`
	DecodeSpeedup  float64 `json:"decode_speedup"`

	JSONBytesFrame int `json:"json_bytes_frame"`
	BinBytesFrame  int `json:"bin_bytes_frame"`

	BinEncodeAllocsOp float64 `json:"bin_encode_allocs_op"`
	BinDecodeAllocsOp float64 `json:"bin_decode_allocs_op"`

	// The allocation accounting for the pooled JSON send path: allocs
	// per Send through the connection transport's reused buffer vs the
	// fresh-Marshal allocation the old path paid per frame.
	JSONPooledSendAllocsOp float64 `json:"json_pooled_send_allocs_op"`
	JSONFreshMarshalAllocs float64 `json:"json_fresh_marshal_allocs_op"`
}

type broadcastBench struct {
	Fleet    int `json:"fleet"`
	Sections int `json:"sections"`
	// JSONUnicastBytes is one round of quotes as N unicast JSON Quote
	// frames, each carrying its own N−1 background vector.
	JSONUnicastBytes int `json:"json_unicast_bytes"`
	// BinaryBatchBytes is the same round as N binary QuoteBatch frames
	// sharing the section-totals header, own rows elided (the steady
	// state once every vehicle has acknowledged a schedule).
	BinaryBatchBytes int     `json:"binary_batch_bytes"`
	Ratio            float64 `json:"ratio"`
}

type gameRun struct {
	Rounds    int     `json:"rounds"`
	Converged bool    `json:"converged"`
	Welfare   float64 `json:"welfare_per_hour"`
	WallMS    float64 `json:"wall_ms"`
	RoundMS   float64 `json:"round_ms"`
}

type gameBench struct {
	Fleet       int     `json:"fleet"`
	Sections    int     `json:"sections"`
	Parallelism int     `json:"parallelism"`
	JSON        gameRun `json:"json"`
	Binary      gameRun `json:"binary"`
	// WelfareBitwiseEqual is the headline correctness check: both
	// wires land on the identical float64, not merely within
	// tolerance.
	WelfareBitwiseEqual bool `json:"welfare_bitwise_equal"`
}

type wireReport struct {
	Header
	Codec     codecBench     `json:"codec"`
	Broadcast broadcastBench `json:"broadcast"`
	Game      gameBench      `json:"game"`
	Verdict
}

func wireGate(fs *flag.FlagSet) func() (report, error) {
	n := fs.Int("n", 1000, "fleet size for the broadcast and game measurements")
	c := fs.Int("c", 20, "charging sections")
	// Sequential turns by default: Theorem IV.1 guarantees the
	// sequential dynamics converge (Jacobi sweeps can limit-cycle at
	// high congestion), and one-RPC-at-a-time is also the cleanest
	// isolation of per-frame codec cost in the round latency.
	parallel := fs.Int("parallel", 1, "coordinator batch size for the game runs")
	tol := fs.Float64("tol", 1e-3, "game convergence tolerance (kW)")
	rounds := fs.Int("rounds", 300, "game round budget")
	return func() (report, error) { return runWire(*n, *c, *parallel, *tol, *rounds) }
}

func runWire(n, c, parallel int, tol float64, rounds int) (*wireReport, error) {
	rep := &wireReport{}
	var err error
	if rep.Codec, err = runCodecBench(c); err != nil {
		return nil, fmt.Errorf("codec bench: %w", err)
	}
	if rep.Broadcast, err = runBroadcastBench(n, c); err != nil {
		return nil, fmt.Errorf("broadcast bench: %w", err)
	}
	if rep.Game, err = runGameAB(n, c, parallel, tol, rounds); err != nil {
		return nil, fmt.Errorf("game bench: %w", err)
	}

	cd, g := rep.Codec, rep.Game
	rep.expect(cd.EncodeSpeedup >= 3, "encode speedup %.2fx < 3x", cd.EncodeSpeedup)
	rep.expect(cd.DecodeSpeedup >= 3, "decode speedup %.2fx < 3x", cd.DecodeSpeedup)
	rep.expect(cd.BinEncodeAllocsOp == 0 && cd.BinDecodeAllocsOp == 0,
		"binary allocs/op encode %g decode %g, want 0", cd.BinEncodeAllocsOp, cd.BinDecodeAllocsOp)
	rep.expect(rep.Broadcast.Ratio > 0 && rep.Broadcast.Ratio <= 0.5,
		"broadcast bytes ratio %.3f outside (0, 0.5]", rep.Broadcast.Ratio)
	rep.expect(g.WelfareBitwiseEqual && g.JSON.Converged && g.Binary.Converged,
		"game welfare bitwise_equal=%v (json %v in %d rounds, binary %v in %d rounds), want equal and both converged",
		g.WelfareBitwiseEqual, g.JSON.Welfare, g.JSON.Rounds, g.Binary.Welfare, g.Binary.Rounds)
	return rep, nil
}

// benchQuote is the representative frame both codec measurements use:
// a quote carrying a C-section background vector of full-precision
// floats, the shape that dominates a session's traffic.
func benchQuote(c int) (v2i.Quote, []float64) {
	others := make([]float64, c)
	for i := range others {
		// Full-precision decimals, like any water-filled schedule: a
		// converged allocation never prints short.
		others[i] = 53.55 * math.Sqrt(float64(i)+2) / 3.7
	}
	return v2i.Quote{
		VehicleID: "ev-0042", Others: others, Round: 17, Epoch: 911, FleetSize: 1000,
		Cost: costSpec(),
	}, others
}

// costSpec is the grid's quoted cost for the wire and chaos fleets.
func costSpec() v2i.CostSpec {
	return v2i.CostSpec{
		Kind: "nonlinear", BetaPerKWh: 0.02, Alpha: 0.875,
		LineCapacityKW: 53.55, OverloadKappaPerKWh: 10, OverloadCapacityKW: 0.9 * 53.55,
	}
}

// weight is vehicle i's log-satisfaction weight in the wire and chaos
// fleets.
func weight(i int) float64 { return 1 + 0.06*float64(i%5) }

// discardConn is a net.Conn that swallows writes; it backs the
// send-path allocation measurement.
type discardConn struct{}

func (discardConn) Read([]byte) (int, error)         { return 0, fmt.Errorf("discard: no reads") }
func (discardConn) Write(p []byte) (int, error)      { return len(p), nil }
func (discardConn) Close() error                     { return nil }
func (discardConn) LocalAddr() net.Addr              { return nil }
func (discardConn) RemoteAddr() net.Addr             { return nil }
func (discardConn) SetDeadline(time.Time) error      { return nil }
func (discardConn) SetReadDeadline(time.Time) error  { return nil }
func (discardConn) SetWriteDeadline(time.Time) error { return nil }

func runCodecBench(c int) (codecBench, error) {
	var out codecBench
	quote, _ := benchQuote(c)
	env, err := v2i.Seal(v2i.TypeQuote, "smart-grid", 7, &quote)
	if err != nil {
		return out, err
	}
	jframe, err := json.Marshal(env)
	if err != nil {
		return out, err
	}
	jframe = append(jframe, '\n')
	bframe, err := v2i.AppendBinaryFrame(nil, v2i.TypeQuote, "smart-grid", 7, &quote)
	if err != nil {
		return out, err
	}
	out.JSONBytesFrame = len(jframe)
	out.BinBytesFrame = len(bframe)

	nsPerOp := func(f func()) float64 {
		r := testing.Benchmark(func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				f()
			}
		})
		return float64(r.NsPerOp())
	}

	// Encode: what each wire does per outgoing frame — a fresh Marshal
	// for JSON (the envelope path), an append into a reused buffer for
	// binary (the typed path).
	out.JSONEncodeNsOp = nsPerOp(func() {
		b, err := json.Marshal(env)
		if err != nil || len(b) == 0 {
			panic("marshal")
		}
	})
	buf := make([]byte, 0, 4096)
	out.BinEncodeNsOp = nsPerOp(func() {
		var err error
		buf, err = v2i.AppendBinaryFrame(buf[:0], v2i.TypeQuote, "smart-grid", 7, &quote)
		if err != nil {
			panic("encode")
		}
	})

	// Decode: frame bytes back to an opened Quote.
	var jq v2i.Quote
	out.JSONDecodeNsOp = nsPerOp(func() {
		env, err := v2i.DecodeFrame(jframe)
		if err != nil {
			panic("decode")
		}
		jq = v2i.Quote{}
		if err := v2i.Open(env, v2i.TypeQuote, &jq); err != nil {
			panic("open")
		}
	})
	var dec v2i.FrameDecoder
	var bq v2i.Quote
	out.BinDecodeNsOp = nsPerOp(func() {
		env, err := dec.Decode(bframe)
		if err != nil {
			panic("decode")
		}
		if err := v2i.Open(env, v2i.TypeQuote, &bq); err != nil {
			panic("open")
		}
	})
	out.EncodeSpeedup = out.JSONEncodeNsOp / out.BinEncodeNsOp
	out.DecodeSpeedup = out.JSONDecodeNsOp / out.BinDecodeNsOp

	// Steady-state allocation accounting for the binary codec: both
	// directions must be free once buffers are warm.
	out.BinEncodeAllocsOp = testing.AllocsPerRun(200, func() {
		var err error
		buf, err = v2i.AppendBinaryFrame(buf[:0], v2i.TypeQuote, "smart-grid", 7, &quote)
		if err != nil {
			panic("encode")
		}
	})
	out.BinDecodeAllocsOp = testing.AllocsPerRun(200, func() {
		env, err := dec.Decode(bframe)
		if err != nil {
			panic("decode")
		}
		if err := v2i.Open(env, v2i.TypeQuote, &bq); err != nil {
			panic("open")
		}
	})

	// The pooled JSON send path vs the fresh Marshal it replaced.
	tx := v2i.NewConnTransport(discardConn{})
	ctx := context.Background()
	out.JSONPooledSendAllocsOp = testing.AllocsPerRun(200, func() {
		if err := tx.Send(ctx, env); err != nil {
			panic("send")
		}
	})
	out.JSONFreshMarshalAllocs = testing.AllocsPerRun(200, func() {
		b, err := json.Marshal(env)
		if err != nil {
			panic("marshal")
		}
		b = append(b, '\n')
		if _, err := (discardConn{}).Write(b); err != nil {
			panic("write")
		}
	})
	return out, nil
}

func runBroadcastBench(n, c int) (broadcastBench, error) {
	out := broadcastBench{Fleet: n, Sections: c}
	_, totals := benchQuote(c)

	// JSON unicast: every vehicle gets its own Quote with its own
	// background vector (others = totals − own differs per vehicle, so
	// nothing is shareable on this wire).
	for i := 0; i < n; i++ {
		q, _ := benchQuote(c)
		q.VehicleID = fmt.Sprintf("ev-%04d", i)
		env, err := v2i.Seal(v2i.TypeQuote, "smart-grid", uint64(i+1), &q)
		if err != nil {
			return out, err
		}
		frame, err := json.Marshal(env)
		if err != nil {
			return out, err
		}
		out.JSONUnicastBytes += len(frame) + 1 // newline delimiter
	}

	// Binary batch: the shared round header + totals, own row elided —
	// the steady state once every vehicle has acknowledged a schedule.
	batch := v2i.QuoteBatch{Round: 17, Epoch: 911, FleetSize: n, Cost: costSpec(), Totals: totals}
	var buf []byte
	for i := 0; i < n; i++ {
		var err error
		buf, err = v2i.AppendBinaryFrame(buf[:0], v2i.TypeQuoteBatch, "smart-grid", uint64(i+1), &batch)
		if err != nil {
			return out, err
		}
		out.BinaryBatchBytes += len(buf)
	}
	out.Ratio = float64(out.BinaryBatchBytes) / float64(out.JSONUnicastBytes)
	return out, nil
}

// runGame plays one clean n-vehicle game over pipe pairs on the given
// wire and reports rounds, welfare, and wall clock.
func runGame(w v2i.Wire, n, c, parallel int, tol float64, rounds int) (gameRun, error) {
	var out gameRun
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Minute)
	defer cancel()

	links := make(map[string]v2i.Transport, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		id := fmt.Sprintf("ev-%04d", i)
		gridSide, vehSide := v2i.NewPipePair(w)
		links[id] = gridSide
		agent, err := sched.NewAgent(sched.AgentConfig{
			VehicleID:    id,
			MaxPowerKW:   60,
			Satisfaction: core.LogSatisfaction{Weight: weight(i)},
		}, vehSide)
		if err != nil {
			return out, err
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			_, _ = agent.Run(ctx)
			_ = vehSide.Close()
		}()
	}

	coord, err := sched.NewCoordinator(sched.CoordinatorConfig{
		NumSections:    c,
		LineCapacityKW: 53.55,
		Cost:           costSpec(),
		Tolerance:      tol,
		MaxRounds:      rounds,
		RoundTimeout:   30 * time.Second, // in-process pipes: a timeout would only inject retry nondeterminism
		Parallelism:    parallel,
		ShutdownGrace:  200 * time.Millisecond,
		Seed:           11,
	}, links)
	if err != nil {
		return out, err
	}
	start := time.Now()
	report, err := coord.Run(ctx)
	wall := time.Since(start)
	if err != nil {
		return out, fmt.Errorf("wire %s: %w", w, err)
	}
	_ = coord.Close()
	wg.Wait()

	out.Rounds = report.Rounds
	out.Converged = report.Converged
	out.Welfare = -report.WelfareCost
	out.WallMS = float64(wall) / float64(time.Millisecond)
	if report.Rounds > 0 {
		out.RoundMS = out.WallMS / float64(report.Rounds)
	}
	return out, nil
}

func runGameAB(n, c, parallel int, tol float64, rounds int) (gameBench, error) {
	out := gameBench{Fleet: n, Sections: c, Parallelism: parallel}
	var err error
	if out.JSON, err = runGame(v2i.WireJSON, n, c, parallel, tol, rounds); err != nil {
		return out, err
	}
	if out.Binary, err = runGame(v2i.WireBinary, n, c, parallel, tol, rounds); err != nil {
		return out, err
	}
	out.WelfareBitwiseEqual = math.Float64bits(out.JSON.Welfare) == math.Float64bits(out.Binary.Welfare) &&
		out.JSON.Rounds == out.Binary.Rounds
	return out, nil
}
