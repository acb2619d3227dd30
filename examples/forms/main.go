// Forms: "complex objects with shared subobjects" — the motivating use
// case of the paper's introduction. A form is a stored database procedure
// assembling its widgets (joined to a shared style library); the example
// runs the same forms under two strategies:
//
//  1. Cache and Invalidate, via the procedure layer: editing one widget
//     breaks exactly one form's i-lock; only that form is recomputed on
//     its next render.
//
//  2. Update Cache (Rete), with ONE style α-memory shared by every form's
//     join node: restyling the library is a single right-activation token
//     that ripples into all affected forms at once.
//
//     go run ./examples/forms
package main

import (
	"fmt"

	"dbproc/internal/cache"
	"dbproc/internal/metric"
	"dbproc/internal/proc"
	"dbproc/internal/query"
	"dbproc/internal/relation"
	"dbproc/internal/rete"
	"dbproc/internal/storage"
	"dbproc/internal/tuple"
)

const (
	kindLabel = 1
	kindIcon  = 2
	kindTrim  = 3
)

var kindNames = map[int64]string{kindLabel: "label", kindIcon: "icon", kindTrim: "trim"}

type formsDB struct {
	meter   *metric.Meter
	pager   *storage.Pager
	widgets *relation.Relation
	styles  *relation.Relation
}

func buildDB() *formsDB {
	meter := metric.NewMeter(metric.DefaultCosts())
	pager := storage.NewPager(storage.NewDisk(512), meter)
	pager.SetCharging(false)

	ws := tuple.NewSchema("widgets", 64,
		tuple.Field{Name: "tid"}, tuple.Field{Name: "form"},
		tuple.Field{Name: "style"}, tuple.Field{Name: "kind"})
	widgets := relation.NewBTree(pager.Disk(), ws, "form", "tid", 16)
	tid := int64(0)
	for form := int64(1); form <= 5; form++ {
		for i := int64(0); i < 4; i++ {
			t := ws.New()
			ws.SetByName(t, "tid", tid)
			ws.SetByName(t, "form", form)
			ws.SetByName(t, "style", (form+i)%3)
			ws.SetByName(t, "kind", 1+(i%3))
			widgets.Insert(pager, t)
			tid++
		}
	}

	ss := tuple.NewSchema("styles", 64,
		tuple.Field{Name: "sid"}, tuple.Field{Name: "color"}, tuple.Field{Name: "fontpx"})
	styles := relation.NewHash(pager.Disk(), ss, "sid", 2)
	for sid := int64(0); sid < 3; sid++ {
		t := ss.New()
		ss.SetByName(t, "sid", sid)
		ss.SetByName(t, "color", 0xC0FFEE+sid)
		ss.SetByName(t, "fontpx", 12+2*sid)
		styles.Insert(pager, t)
	}

	pager.BeginOp()
	pager.SetCharging(true)
	meter.Reset()
	return &formsDB{meter: meter, pager: pager, widgets: widgets, styles: styles}
}

// read runs fn as one read operation, at a snapshot of the newest commit.
func (db *formsDB) read(fn func()) {
	db.pager.OpenScope(false)
	defer db.pager.CloseScope(0)
	db.pager.BeginOp()
	fn()
	db.pager.Flush()
}

// update runs fn as one update, inside the update epoch, published at the
// next commit stamp.
func (db *formsDB) update(fn func()) {
	db.pager.OpenScope(true)
	defer db.pager.CloseScope(db.pager.Disk().CommitStamp() + 1)
	db.pager.BeginOp()
	fn()
}

func (db *formsDB) formPlan(form int64) query.Plan {
	scan := query.NewBTreeRangeScan(db.widgets, form, form)
	return query.NewHashJoinProbe(scan, db.styles, "style", 128)
}

func renderForm(sch *tuple.Schema, tuples [][]byte) {
	for _, t := range tuples {
		fmt.Printf("    %-5s style=%d color=#%X font=%dpx\n",
			kindNames[sch.GetByName(t, "kind")], sch.GetByName(t, "style"),
			sch.GetByName(t, "styles_color"), sch.GetByName(t, "styles_fontpx"))
	}
}

func cacheInvalidateDemo() {
	fmt.Println("--- Cache and Invalidate: edits touch one form ---")
	db := buildDB()
	mgr := proc.NewManager()
	for form := int64(1); form <= 5; form++ {
		mgr.Define(proc.NewDefinition(int(form), fmt.Sprintf("form%d", form),
			db.formPlan(form), "form", "tid"))
	}
	store := cache.NewStore(db.pager.Disk())
	strat := proc.NewCacheInvalidate(mgr, store)
	db.pager.SetCharging(false)
	strat.Prepare(db.pager)
	db.pager.BeginOp()
	db.pager.SetCharging(true)
	db.meter.Reset()

	var out [][]byte
	db.read(func() { out = strat.Access(db.pager, 2) })
	fmt.Printf("  render form 2 (warm cache, %d widgets): %.0f ms\n",
		len(out), db.meter.Milliseconds())

	// Edit one widget of form 2: move widget tid=5 to style 0.
	ws := db.widgets.Schema()
	db.update(func() {
		old, _ := db.widgets.Tree().Get(db.pager, tuple.ClusterKey(2, 5))
		edited := append([]byte(nil), old...)
		ws.SetByName(edited, "style", 0)
		db.pager.SetCharging(false)
		db.widgets.DeleteKeyed(db.pager, tuple.ClusterKey(2, 5))
		db.widgets.Insert(db.pager, edited)
		db.pager.BeginOp()
		db.pager.SetCharging(true)
		strat.OnUpdate(db.pager, proc.Delta{Rel: db.widgets, Inserted: [][]byte{edited}, Deleted: [][]byte{old}})
	})

	for _, form := range []int{1, 2} {
		valid := store.MustEntry(cache.ID(form)).Valid()
		fmt.Printf("  after editing a form-2 widget: form %d cache valid = %v\n", form, valid)
	}

	db.meter.Reset()
	db.read(func() { out = strat.Access(db.pager, 2) })
	fmt.Printf("  re-render form 2 (recompute + refresh): %.0f ms\n", db.meter.Milliseconds())
	fmt.Println("  form 2 now:")
	renderForm(mgr.MustGet(2).Plan.Schema(), out)
	fmt.Println()
}

func sharedReteDemo() {
	fmt.Println("--- Update Cache (Rete): one shared style memory feeds every form ---")
	db := buildDB()
	net := rete.NewNetwork(db.pager.Disk())
	ws, ss := db.widgets.Schema(), db.styles.Schema()

	db.pager.SetCharging(false)
	// ONE α-memory of the style library, clustered by sid, shared by all
	// five forms' join nodes: the "shared subobject".
	styleMem := net.NewMemory(ss, nil, func(t []byte) uint64 {
		return tuple.ClusterKey(ss.GetByName(t, "sid"), 0)
	})
	db.styles.Hash().ScanAll(db.pager, func(rec []byte) bool {
		styleMem.Activate(db.pager, rete.Token{Tag: rete.Plus, Tuple: append([]byte(nil), rec...)})
		return true
	})

	widgetKey := func(t []byte) uint64 {
		return tuple.ClusterKey(ws.GetByName(t, "style"), ws.GetByName(t, "tid"))
	}
	type formView struct {
		beta *rete.Memory
		sch  *tuple.Schema
	}
	views := map[int64]formView{}
	for form := int64(1); form <= 5; form++ {
		tc := net.TConst(ws, "form", form, form)
		alpha := net.NewMemory(ws, nil, widgetKey)
		tc.Attach(alpha)
		and := net.NewAndNode(alpha, styleMem, "style", "sid", "styles_", 128)
		beta := net.NewMemory(and.Schema(), nil, func(t []byte) uint64 {
			sch := and.Schema()
			return tuple.ClusterKey(sch.GetByName(t, "tid"), 0)
		})
		and.Attach(beta)
		views[form] = formView{beta, and.Schema()}
	}
	db.widgets.Tree().ScanAll(db.pager, func(rec []byte) bool {
		net.Submit(db.pager, "widgets", rete.Token{Tag: rete.Plus, Tuple: append([]byte(nil), rec...)})
		return true
	})
	db.pager.BeginOp()
	db.pager.SetCharging(true)
	db.meter.Reset()

	read := func(form int64) (out [][]byte) {
		db.read(func() {
			views[form].beta.File().Scan(db.pager, func(_ uint64, rec []byte) bool {
				out = append(out, append([]byte(nil), rec...))
				return true
			})
		})
		return out
	}
	fmt.Println("  form 3 before the restyle:")
	renderForm(views[3].sch, read(3))

	// Restyle the library: style 1 gets a new color. One - token and one
	// + token at the SHARED memory update every form that uses style 1.
	var oldStyle []byte
	db.read(func() { oldStyle, _ = db.styles.Hash().Lookup(db.pager, 1) })
	newStyle := append([]byte(nil), oldStyle...)
	ss.SetByName(newStyle, "color", 0x00AA55)
	db.meter.Reset()
	db.update(func() {
		styleMem.Activate(db.pager, rete.Token{Tag: rete.Minus, Tuple: oldStyle})
		styleMem.Activate(db.pager, rete.Token{Tag: rete.Plus, Tuple: newStyle})
	})
	fmt.Printf("  restyled the shared library (every form maintained): %.0f ms\n", db.meter.Milliseconds())

	fmt.Println("  form 3 after (style-1 widgets recolored in place):")
	renderForm(views[3].sch, read(3))
	fmt.Println("\n  The style change was applied through ONE shared memory node;")
	fmt.Println("  with per-form style copies it would cost 5x the maintenance work.")
}

func main() {
	cacheInvalidateDemo()
	sharedReteDemo()
}
