package core_test

// The reporting table (report.go) says which of the four consumers —
// Rank.Stats, the metrics registry, the causal recorder, the trace ring
// — hears of each protocol step. Two tests hold it to that: one runs
// workloads that take every step with every consumer installed and
// requires the consumers of each row to agree; the other reads the
// package's source and requires that nothing outside the reporting file
// talks to a consumer.

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"reflect"
	"sort"
	"strconv"
	"strings"
	"testing"

	"repro/internal/causal"
	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/metrics"
	"repro/internal/perfmodel"
	"repro/internal/sim"
	"repro/internal/trace"
)

// addStats adds every field of s to dst.
func addStats(dst *core.Stats, s core.Stats) {
	d, v := reflect.ValueOf(dst).Elem(), reflect.ValueOf(s)
	for i := 0; i < d.NumField(); i++ {
		d.Field(i).SetInt(d.Field(i).Int() + v.Field(i).Int())
	}
}

// statName names the Stats field an accessor of the table selects.
func statName(f func(*core.Stats) *int64) string {
	var s core.Stats
	*f(&s) = 1
	v := reflect.ValueOf(s)
	for i := 0; i < v.NumField(); i++ {
		if v.Field(i).Int() == 1 {
			return v.Type().Field(i).Name
		}
	}
	return "?"
}

// runEveryPath drives a 3-rank DCFA world through each §IV-B3 path and
// the steps around them that the torture workload does not reach by
// construction: a four-slot ring (credit starvation), an offload arena
// that holds one 64 KiB message (so a second one finds it full), and
// host-offloaded datatype packing.
func runEveryPath(t *testing.T, reg *metrics.Registry, rec *causal.Recorder, ring *trace.Recorder) core.Stats {
	t.Helper()
	const (
		small = 256
		big   = 64 << 10
		late  = 400 * sim.Microsecond
	)
	c := cluster.New(perfmodel.Default(), 3)
	c.SetMetrics(reg)
	c.SetCausal(rec)
	w := c.DCFAWorld(3, true)
	w.Cfg.Trace = ring
	w.Cfg.EagerSlots = 4
	w.Cfg.OffloadArena = 96 << 10
	w.Cfg.OffloadDatatypePack = true
	// oneWay sends n bytes 0 → 1 into an m-byte receive, each side
	// starting after its delay.
	oneWay := func(r *core.Rank, tag, n, m int, sd, rd sim.Duration) error {
		p := r.Proc()
		switch r.ID() {
		case 0:
			p.Sleep(sd)
			return r.Send(p, 1, tag, core.Whole(r.Mem(n)))
		case 1:
			p.Sleep(rd)
			_, err := r.Recv(p, 0, tag, core.Whole(r.Mem(m)))
			return err
		}
		return nil
	}
	phases := []func(r *core.Rank) error{
		// Eager; sender-first (staged through the offload buffer, its
		// RTS unexpected); receiver-first; mis-prediction, an eager
		// message into a receive that advertised a large buffer.
		func(r *core.Rank) error { return oneWay(r, 1, small, small, 0, 0) },
		func(r *core.Rank) error { return oneWay(r, 2, big, big, 0, late) },
		func(r *core.Rank) error { return oneWay(r, 3, big, big, late, 0) },
		func(r *core.Rank) error { return oneWay(r, 4, small, big, late, 0) },
		// Simultaneous: RTS and RTR cross.
		func(r *core.Rank) error {
			if r.ID() == 2 {
				return nil
			}
			other := 1 - r.ID()
			_, err := r.Sendrecv(r.Proc(), other, 5, core.Whole(r.Mem(big)), other, 5, core.Whole(r.Mem(big)))
			return err
		},
		// An ANY_SOURCE receive locks sequence assignment, a second
		// receive is deferred behind it, and the packet that releases
		// the lock arrives later.
		func(r *core.Rank) error {
			p := r.Proc()
			if r.ID() != 0 {
				p.Sleep(50 * sim.Microsecond)
				return r.Send(p, 0, 5+r.ID(), core.Whole(r.Mem(small)))
			}
			any, err := r.Irecv(p, core.AnySource, 6, core.Whole(r.Mem(small)))
			if err != nil {
				return err
			}
			named, err := r.Irecv(p, 2, 7, core.Whole(r.Mem(small)))
			if err != nil {
				return err
			}
			return r.WaitAll(p, any, named)
		},
		// A burst into a sleeping receiver: sends queue for credit and
		// the receiver has to return credits explicitly.
		func(r *core.Rank) error {
			p := r.Proc()
			const msgs = 32
			buf := core.Whole(r.Mem(small))
			switch r.ID() {
			case 0:
				reqs := make([]*core.Request, msgs)
				for i := range reqs {
					var err error
					if reqs[i], err = r.Isend(p, 1, 100+i, buf); err != nil {
						return err
					}
				}
				return r.WaitAll(p, reqs...)
			case 1:
				p.Sleep(2 * sim.Millisecond)
				for i := 0; i < msgs; i++ {
					if _, err := r.Recv(p, 0, 100+i, buf); err != nil {
						return err
					}
				}
			}
			return nil
		},
		// Two large sends in flight: the second finds the arena full.
		func(r *core.Rank) error {
			p := r.Proc()
			a, b := core.Whole(r.Mem(big)), core.Whole(r.Mem(big))
			switch r.ID() {
			case 0:
				qa, err := r.Isend(p, 1, 8, a)
				if err != nil {
					return err
				}
				qb, err := r.Isend(p, 1, 9, b)
				if err != nil {
					return err
				}
				return r.WaitAll(p, qa, qb)
			case 1:
				if _, err := r.Recv(p, 0, 8, a); err != nil {
					return err
				}
				_, err := r.Recv(p, 0, 9, b)
				return err
			}
			return nil
		},
		// Loopback, and a strided send packed on the host.
		func(r *core.Rank) error {
			p := r.Proc()
			dt := core.Vector(512, 8, 16, 8) // 32 KiB packed
			mat := core.Whole(r.Mem(dt.Extent()))
			switch r.ID() {
			case 0:
				return r.SendTyped(p, 1, 10, mat, dt)
			case 1:
				_, err := r.RecvTyped(p, 0, 10, mat, dt)
				return err
			}
			q, err := r.Isend(p, 2, 11, core.Whole(r.Mem(small)))
			if err != nil {
				return err
			}
			if _, err := r.Recv(p, 2, 11, core.Whole(r.Mem(small))); err != nil {
				return err
			}
			_, err = r.Wait(p, q)
			return err
		},
	}
	err := w.Run(func(r *core.Rank) error {
		for i, phase := range phases {
			if err := r.Barrier(r.Proc()); err != nil {
				return err
			}
			if err := phase(r); err != nil {
				return fmt.Errorf("phase %d: %w", i, err)
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	var sum core.Stats
	for i := 0; i < 3; i++ {
		addStats(&sum, w.Rank(i).Stats)
	}
	return sum
}

// TestEveryStepReachesTheConsumersItsRowNames runs the fault-injected
// torture, the every-path pattern and the replay flood (the one workload
// whose rings wrap onto a replayed packet) with Stats, a registry, a
// causal recorder and an unbounded trace ring all installed, then walks
// the reporting table. A cell is one consumer's reading: a Stats field, a
// counter, a causal kind, a ring kind. Some are shared between rows
// (proto.mispredicts has a row per end of the mis-prediction), so the
// rule is about the rows behind a cell: wherever another consumer's
// cells cover exactly the same rows, the readings must add up to the
// same number. And every row must have fired.
func TestEveryStepReachesTheConsumersItsRowNames(t *testing.T) {
	reg, rec, ring := metrics.New(), causal.New(), trace.New(0)
	sum := runTortureSinks(t, 7, tortureFaults(7), reg, rec, ring).all
	addStats(&sum, runEveryPath(t, reg, rec, ring))
	_, flood, _ := runReplayFloodSinks(t, 7, reg, rec, ring)
	addStats(&sum, flood)

	counter := func(name string) (v int64) {
		for i := 0; i < 4; i++ {
			v += reg.Counter("rank"+strconv.Itoa(i), name).Value()
		}
		return v
	}
	// causal readings: events per kind — work requests per what they
	// move, which is how the two RDMA rows differ — and their bytes.
	wrOf := map[string]uint8{"rdma-read": causal.WRRndvRead, "rdma-write": causal.WRRndvWrite}
	evCount, evBytes := map[string]int64{}, map[string]int64{}
	evKey := func(k causal.Kind, pkt uint8) string { return fmt.Sprintf("%v/%d", k, pkt) }
	for _, e := range rec.Events() {
		pkt := uint8(0)
		if e.Kind == causal.EvWRPost {
			pkt = e.Pkt
		}
		evCount[evKey(e.Kind, pkt)]++
		evBytes[evKey(e.Kind, pkt)] += int64(e.Bytes)
	}

	type cell struct{ consumer, key string }
	rows := core.StepRows()
	cellsOf := make([][]cell, len(rows))
	rowsOf := map[cell][]int{}
	reading := map[cell]int64{}
	for k, row := range rows {
		add := func(c cell, v int64) {
			cellsOf[k] = append(cellsOf[k], c)
			rowsOf[c] = append(rowsOf[c], k)
			reading[c] = v
		}
		if row.Stat != nil {
			add(cell{"stats", statName(row.Stat)}, *row.Stat(&sum))
		}
		if row.Ev != 0 {
			key := evKey(row.Ev, wrOf[row.Trace])
			add(cell{"causal", key}, evCount[key])
			if row.AddsN {
				// A counter that sums bytes is read against the bytes
				// the causal stream carries, not against counts.
				if got := counter(row.Counter); got != evBytes[key] {
					t.Errorf("step %d: counter %s sums %d bytes, %v events carry %d", k, row.Counter, got, row.Ev, evBytes[key])
				}
			}
		}
		if row.Counter != "" && !row.AddsN {
			add(cell{"counter", row.Counter}, counter(row.Counter))
		}
		if row.Trace != "" {
			add(cell{"trace", row.Trace}, int64(ring.Count(row.Trace)))
		}
	}
	same := func(a, b []int) bool { return fmt.Sprint(a) == fmt.Sprint(b) }
	var cells []cell
	for c := range rowsOf {
		cells = append(cells, c)
	}
	sort.Slice(cells, func(i, j int) bool { return fmt.Sprint(cells[i]) < fmt.Sprint(cells[j]) })
	for _, a := range cells {
		for _, consumer := range []string{"stats", "counter", "causal", "trace"} {
			if consumer == a.consumer {
				continue
			}
			// The other consumer's cells over a's rows, and the rows
			// behind those.
			seen := map[cell]bool{}
			var others []cell
			var behind []int
			covered := true
			for _, k := range rowsOf[a] {
				found := false
				for _, c := range cellsOf[k] {
					if c.consumer != consumer {
						continue
					}
					found = true
					if !seen[c] {
						seen[c] = true
						others = append(others, c)
						behind = append(behind, rowsOf[c]...)
					}
				}
				covered = covered && found
			}
			sort.Ints(behind)
			if !covered || !same(behind, rowsOf[a]) {
				continue
			}
			var total int64
			for _, c := range others {
				total += reading[c]
			}
			if total != reading[a] {
				t.Errorf("%s %s = %d, but %s %v = %d", a.consumer, a.key, reading[a], consumer, others, total)
			}
		}
	}
	for k := range rows {
		own := false
		for _, c := range cellsOf[k] {
			if len(rowsOf[c]) == 1 {
				own = true
				if reading[c] == 0 {
					t.Errorf("step %d never fired: %s %s = 0 (%s)", k, c.consumer, c.key, ring.Summary())
				}
			}
		}
		if !own {
			t.Errorf("step %d has no cell of its own %v: nothing tells it from its neighbours", k, cellsOf[k])
		}
	}
	// The one Stats field that sums bytes.
	if sent := evBytes[evKey(causal.EvSendPost, 0)]; sum.BytesSent != sent {
		t.Errorf("Stats.BytesSent = %d, send-post events carry %d", sum.BytesSent, sent)
	}
}

// TestOnlyTheReportingFileTalksToConsumers reads internal/core's
// non-test source. Outside report.go (and mrcache.go, whose hit and miss
// counters are a cache's, not a protocol step's) nothing may be selected
// from the metrics, causal or trace packages except as the type of a
// struct field — Config's three in world.go, the two spans a Request
// carries — and nothing may write a Stats field or take its address.
func TestOnlyTheReportingFileTalksToConsumers(t *testing.T) {
	consumers := map[string]bool{"repro/internal/metrics": true, "repro/internal/causal": true, "repro/internal/trace": true}
	fieldTypesOK := map[string]bool{"world.go": true, "request.go": true, "rank.go": true}
	fset := token.NewFileSet()
	pkgs, err := parser.ParseDir(fset, ".", func(fi fs.FileInfo) bool {
		return !strings.HasSuffix(fi.Name(), "_test.go")
	}, 0)
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for name := range pkgs["core"].Files {
		names = append(names, name)
	}
	sort.Strings(names)
	if len(names) < 10 {
		t.Fatalf("parsed %d files of package core, expected the whole package", len(names))
	}
	for _, name := range names {
		if name == "report.go" || name == "mrcache.go" {
			continue
		}
		f := pkgs["core"].Files[name]
		imported := map[string]bool{}
		for _, im := range f.Imports {
			path, _ := strconv.Unquote(im.Path.Value)
			if !consumers[path] {
				continue
			}
			local := path[strings.LastIndex(path, "/")+1:]
			if im.Name != nil {
				local = im.Name.Name
			}
			imported[local] = true
		}
		asFieldType := map[*ast.SelectorExpr]bool{}
		ast.Inspect(f, func(n ast.Node) bool {
			if st, ok := n.(*ast.StructType); ok && fieldTypesOK[name] {
				for _, fld := range st.Fields.List {
					typ := fld.Type
					if star, ok := typ.(*ast.StarExpr); ok {
						typ = star.X
					}
					if sel, ok := typ.(*ast.SelectorExpr); ok {
						asFieldType[sel] = true
					}
				}
			}
			return true
		})
		statsField := func(e ast.Expr) bool {
			sel, ok := e.(*ast.SelectorExpr)
			if !ok {
				return false
			}
			if sel.Sel.Name == "Stats" {
				return true
			}
			inner, ok := sel.X.(*ast.SelectorExpr)
			return ok && inner.Sel.Name == "Stats"
		}
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.SelectorExpr:
				if id, ok := n.X.(*ast.Ident); ok && imported[id.Name] && !asFieldType[n] {
					t.Errorf("%s: %s.%s used outside the reporting file", fset.Position(n.Pos()), id.Name, n.Sel.Name)
				}
			case *ast.AssignStmt:
				for _, lhs := range n.Lhs {
					if statsField(lhs) {
						t.Errorf("%s: Stats written outside the reporting file", fset.Position(n.Pos()))
					}
				}
			case *ast.IncDecStmt:
				if statsField(n.X) {
					t.Errorf("%s: Stats written outside the reporting file", fset.Position(n.Pos()))
				}
			case *ast.UnaryExpr:
				if n.Op == token.AND && statsField(n.X) {
					t.Errorf("%s: address of Stats taken outside the reporting file", fset.Position(n.Pos()))
				}
			}
			return true
		})
	}
}
