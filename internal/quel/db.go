package quel

import (
	"fmt"
	"strings"

	"dbproc/internal/cache"
	"dbproc/internal/metric"
	"dbproc/internal/proc"
	"dbproc/internal/query"
	"dbproc/internal/relation"
	"dbproc/internal/storage"
	"dbproc/internal/tuple"
)

// DB is an interactive database session: a catalog, a metered pager, and a
// procedure manager running stored procedures under Cache and Invalidate
// (with Always Recompute available through plain retrieves).
type DB struct {
	cat   *relation.Catalog
	pager *storage.Pager
	meter *metric.Meter
	width int

	procs      *proc.Manager
	strategy   *proc.CacheInvalidate
	store      *cache.Store
	procedures map[string][]part // procedure name -> its leaf queries
	nextID     int
	nextSeq    uint64

	// tx is the open transaction, nil outside one. A session holds at
	// most one open transaction (the server's statement gate serializes
	// sessions, so this is a per-server invariant too).
	tx *Tx

	// wrapPlan, when set (by the aliasing oracle's test), is applied to
	// every compiled plan before anything consumes it.
	wrapPlan func(query.Plan) query.Plan
}

// Open creates an empty session. pageSize and width follow the paper's
// defaults when 0 (4000-byte pages, 100-byte tuples); costs price the
// meter (metric.DefaultCosts for the paper's constants).
func Open(pageSize, width int, costs metric.Costs) *DB {
	if pageSize == 0 {
		pageSize = 4000
	}
	if width == 0 {
		width = 100
	}
	meter := metric.NewMeter(costs)
	pager := storage.NewPager(storage.NewDisk(pageSize), meter)
	db := &DB{
		cat:        relation.NewCatalog(),
		pager:      pager,
		meter:      meter,
		width:      width,
		procs:      proc.NewManager(),
		store:      cache.NewStore(pager.Disk()),
		procedures: make(map[string][]part),
	}
	db.strategy = proc.NewCacheInvalidate(db.procs, db.store)
	return db
}

// Meter exposes the session's cost meter.
func (db *DB) Meter() *metric.Meter { return db.meter }

// Catalog exposes the session's catalog.
func (db *DB) Catalog() *relation.Catalog { return db.cat }

// Section is one result set of a multi-query procedure.
type Section struct {
	Columns []string
	Rows    [][]int64
}

// Result is the outcome of one statement.
type Result struct {
	// Message summarizes non-row results ("created emp", "appended", ...).
	Message string
	// Columns and Rows carry retrieve/execute output. The rows of one
	// result set are headers over one block of values, each clipped to
	// its own width. An execute's Columns are the procedure's own, shared
	// by every execute of it: read them, do not write them.
	Columns []string
	Rows    [][]int64
	// Sections carries the further result sets of a multi-query procedure
	// (the first set is in Columns/Rows).
	Sections []Section
	// Affected counts tuples changed by append/delete/replace (the wire
	// driver's RowsAffected).
	Affected int64
	// CostMs is the simulated cost charged by the statement.
	CostMs float64
}

// Run parses and executes one statement. Engine-level panics (bad widths,
// capacity violations) are converted to errors so an interactive session
// survives bad input.
func (db *DB) Run(input string) (*Result, error) {
	stmt, err := Parse(input)
	if err != nil {
		return nil, err
	}
	return db.RunParsed(stmt)
}

// RunParsed executes an already-parsed statement — the path a server
// takes for prepared statements, where Parse ran once at Prepare time.
// Inside a transaction every statement runs in the transaction's epoch.
// Outside one, append, delete and replace run as update epochs of their
// own and every other statement reads at a snapshot of the newest commit.
// An update that fails, by error or panic, abandons its epoch — the
// statement's, or the transaction's, which it aborts — so it changes
// nothing.
func (db *DB) RunParsed(stmt Statement) (res *Result, err error) {
	tx := db.tx
	if tx != nil && tx.aborted {
		return nil, errAborted
	}
	update := false
	switch stmt.(type) {
	case *AppendStmt, *DeleteStmt, *ReplaceStmt:
		update = true
	}
	if tx == nil {
		db.pager.OpenScope(update)
	}
	defer func() {
		if r := recover(); r != nil {
			res, err = nil, fmt.Errorf("quel: %v", r)
		}
		switch {
		case update && err != nil:
			db.pager.AbortScope()
			if tx != nil {
				tx.aborted = true
				err = fmt.Errorf("%w (transaction rolled back)", err)
			}
		case tx == nil:
			db.closeScope(update)
		}
	}()
	db.pager.BeginOp()
	before := db.meter.Snapshot()
	res, err = db.exec(stmt)
	db.pager.Flush()
	if err != nil {
		return nil, err
	}
	res.CostMs = db.meter.Since(before).Milliseconds(db.meter.Costs())
	return res, nil
}

// closeScope closes a statement's or a transaction's scope: a read
// releases its snapshot; an update publishes at the next commit stamp and
// version GC follows.
func (db *DB) closeScope(update bool) {
	disk := db.pager.Disk()
	db.pager.CloseScope(disk.CommitStamp() + 1)
	if update {
		disk.GCVersions()
	}
}

func (db *DB) exec(stmt Statement) (*Result, error) {
	if db.tx != nil {
		// Catalog and procedure definitions are not versioned, so a
		// rollback could not take them back.
		switch stmt.(type) {
		case *CreateStmt, *DefineProcStmt:
			return nil, fmt.Errorf("quel: DDL is not allowed inside a transaction")
		}
	}
	switch s := stmt.(type) {
	case *CreateStmt:
		return db.create(s)
	case *AppendStmt:
		return db.append_(s)
	case *RetrieveStmt:
		return db.retrieve(s)
	case *DeleteStmt:
		return db.delete_(s)
	case *ReplaceStmt:
		return db.replace(s)
	case *DefineProcStmt:
		return db.defineProc(s)
	case *ExecuteStmt:
		return db.execute(s)
	case *ExplainStmt:
		return db.explain(s)
	default:
		return nil, fmt.Errorf("quel: unhandled statement %T", stmt)
	}
}

func (db *DB) create(s *CreateStmt) (*Result, error) {
	if db.cat.Lookup(s.Name) != nil {
		return nil, fmt.Errorf("quel: relation %q already exists", s.Name)
	}
	width := s.Width
	if width == 0 {
		width = db.width
	}
	fields := make([]tuple.Field, len(s.Fields))
	for i, f := range s.Fields {
		fields[i] = tuple.Field{Name: f}
	}
	sch := tuple.NewSchema(s.Name, width, fields...)
	var rel *relation.Relation
	switch s.Org {
	case "cluster":
		if sch.FieldIndex("tid") < 0 {
			return nil, fmt.Errorf("quel: clustered relations need a unique 'tid' field (the clustering tiebreaker)")
		}
		rel = relation.NewBTree(db.pager.Disk(), sch, s.Key, "tid", 20)
	case "hash":
		buckets := s.Buckets
		if buckets == 0 {
			buckets = 16
		}
		rel = relation.NewHash(db.pager.Disk(), sch, s.Key, buckets)
	default:
		return nil, fmt.Errorf("quel: unknown organization %q", s.Org)
	}
	db.cat.Define(rel)
	return &Result{Message: fmt.Sprintf("created %s (%s on %s, width %d)", s.Name, s.Org, s.Key, width)}, nil
}

func (db *DB) append_(s *AppendStmt) (*Result, error) {
	rel := db.cat.Lookup(s.Rel)
	if rel == nil {
		return nil, fmt.Errorf("quel: unknown relation %q", s.Rel)
	}
	sch := rel.Schema()
	tup := sch.New()
	for _, a := range s.Values {
		if sch.FieldIndex(a.Field) < 0 {
			return nil, fmt.Errorf("quel: relation %q has no attribute %q", s.Rel, a.Field)
		}
		sch.SetByName(tup, a.Field, a.Value)
	}
	rel.Insert(db.pager, tup)
	// Tell the stored-procedure layer, so conflicting cached results are
	// invalidated.
	db.strategy.OnUpdate(db.pager, proc.Delta{Rel: rel, Inserted: [][]byte{tup}})
	return &Result{Message: "appended 1 tuple to " + s.Rel, Affected: 1}, nil
}

func (db *DB) compile(r *RetrieveStmt) (query.Plan, error) {
	pl := &planner{cat: db.cat, width: db.width}
	plan, err := pl.plan(r)
	if err != nil || db.wrapPlan == nil {
		return plan, err
	}
	return db.wrapPlan(plan), nil
}

// columnsOf names a plan's output columns.
func columnsOf(sch *tuple.Schema) []string {
	cols := make([]string, sch.NumFields())
	for i := range cols {
		cols[i] = sch.FieldName(i)
	}
	return cols
}

// appendValues appends a tuple's field values to a block of rows.
func appendValues(flat []int64, sch *tuple.Schema, tup []byte) []int64 {
	for i := 0; i < sch.NumFields(); i++ {
		flat = append(flat, sch.Get(tup, i))
	}
	return flat
}

// rowHeaders slices a block of rows of width w into one header per row,
// each clipped to its own row — the shape wire's decoder produces. An
// empty block has no rows (nil).
func rowHeaders(flat []int64, w int) [][]int64 {
	if len(flat) == 0 {
		return nil
	}
	rows := make([][]int64, len(flat)/w)
	for i := range rows {
		rows[i] = flat[i*w : (i+1)*w : (i+1)*w]
	}
	return rows
}

// collect runs a plan and renders its rows as one block. The count is
// not known up front, so the headers are sliced once the block has
// stopped growing.
func (db *DB) collect(plan query.Plan) *Result {
	sch := plan.Schema()
	var flat []int64
	plan.Execute(&query.Ctx{Meter: db.meter, Pager: db.pager}, func(tup []byte) bool {
		flat = appendValues(flat, sch, tup)
		return true
	})
	res := &Result{Columns: columnsOf(sch), Rows: rowHeaders(flat, sch.NumFields())}
	res.Message = fmt.Sprintf("%d tuple(s)", len(res.Rows))
	return res
}

func (db *DB) retrieve(s *RetrieveStmt) (*Result, error) {
	plan, err := db.compile(s)
	if err != nil {
		return nil, err
	}
	return db.collect(plan), nil
}

// matchTuples evaluates single-relation quals and returns the matching
// base tuples, reconstructed in schema field order.
func (db *DB) matchTuples(relName string, quals []Qual) (*relation.Relation, [][]byte, error) {
	rel := db.cat.Lookup(relName)
	if rel == nil {
		return nil, nil, fmt.Errorf("quel: unknown relation %q", relName)
	}
	for _, q := range quals {
		if (!q.Left.Const && q.Left.Rel != relName) || (!q.Right.Const && q.Right.Rel != relName) {
			return nil, nil, fmt.Errorf("quel: delete/replace quals may only reference %q", relName)
		}
	}
	plan, err := db.compile(&RetrieveStmt{
		Targets: []Target{{Rel: relName, All: true}},
		Quals:   quals,
	})
	if err != nil {
		return nil, nil, err
	}
	sch := rel.Schema()
	var tuples [][]byte
	plan.Execute(&query.Ctx{Meter: db.meter, Pager: db.pager}, func(row []byte) bool {
		// The rel.all projection preserves field order, so rebuild the
		// base tuple field by field.
		tup := sch.New()
		ps := plan.Schema()
		for i := 0; i < sch.NumFields(); i++ {
			sch.Set(tup, i, ps.Get(row, i))
		}
		tuples = append(tuples, tup)
		return true
	})
	return rel, tuples, nil
}

func (db *DB) removeBase(rel *relation.Relation, tup []byte) {
	if rel.Tree() != nil {
		rel.DeleteKeyed(db.pager, rel.Key(tup))
		return
	}
	rel.Hash().DeleteExact(db.pager, tup)
}

func (db *DB) delete_(s *DeleteStmt) (*Result, error) {
	rel, tuples, err := db.matchTuples(s.Rel, s.Quals)
	if err != nil {
		return nil, err
	}
	for _, tup := range tuples {
		db.removeBase(rel, tup)
	}
	if len(tuples) > 0 {
		db.strategy.OnUpdate(db.pager, proc.Delta{Rel: rel, Deleted: tuples})
	}
	return &Result{
		Message:  fmt.Sprintf("deleted %d tuple(s) from %s", len(tuples), s.Rel),
		Affected: int64(len(tuples)),
	}, nil
}

func (db *DB) replace(s *ReplaceStmt) (*Result, error) {
	rel, tuples, err := db.matchTuples(s.Rel, s.Quals)
	if err != nil {
		return nil, err
	}
	sch := rel.Schema()
	for _, a := range s.Values {
		if sch.FieldIndex(a.Field) < 0 {
			return nil, fmt.Errorf("quel: relation %q has no attribute %q", s.Rel, a.Field)
		}
	}
	var inserted [][]byte
	for _, old := range tuples {
		newTup := append([]byte(nil), old...)
		for _, a := range s.Values {
			sch.SetByName(newTup, a.Field, a.Value)
		}
		db.removeBase(rel, old)
		rel.Insert(db.pager, newTup)
		inserted = append(inserted, newTup)
	}
	if len(tuples) > 0 {
		db.strategy.OnUpdate(db.pager, proc.Delta{Rel: rel, Deleted: tuples, Inserted: inserted})
	}
	return &Result{
		Message:  fmt.Sprintf("replaced %d tuple(s) in %s", len(tuples), s.Rel),
		Affected: int64(len(tuples)),
	}, nil
}

func (db *DB) defineProc(s *DefineProcStmt) (*Result, error) {
	if _, dup := db.procedures[s.Name]; dup {
		return nil, fmt.Errorf("quel: procedure %q already defined", s.Name)
	}
	// Compile every query before defining anything, so a failed part
	// leaves no partial procedure behind.
	plans := make([]query.Plan, len(s.Queries))
	for i, q := range s.Queries {
		p, err := db.compile(q)
		if err != nil {
			return nil, fmt.Errorf("query %d of %s: %w", i+1, s.Name, err)
		}
		plans[i] = p
	}
	parts := make([]part, len(plans))
	for i, plan := range plans {
		id := db.nextID
		db.nextID++
		// Sequence-valued result keys: unique and ascending in plan
		// output order, all Cache and Invalidate needs.
		def := proc.NewDefinitionWithKey(id, fmt.Sprintf("%s#%d", s.Name, i+1), plan,
			func([]byte) uint64 {
				db.nextSeq++
				return db.nextSeq
			})
		db.procs.Define(def)
		parts[i] = part{id: id, sch: plan.Schema(), columns: columnsOf(plan.Schema())}
	}
	// Warming the caches is setup, not workload: mute both the pager's
	// I/O charging and the meter's CPU events.
	prevCharge := db.pager.SetCharging(false)
	prevMute := db.meter.SetMuted(true)
	for _, p := range parts {
		db.strategy.Adopt(db.pager, p.id)
	}
	db.pager.BeginOp()
	db.meter.SetMuted(prevMute)
	db.pager.SetCharging(prevCharge)
	db.procedures[s.Name] = parts
	plural := ""
	if len(parts) > 1 {
		plural = fmt.Sprintf(", %d queries", len(parts))
	}
	return &Result{Message: fmt.Sprintf("defined procedure %s (cached, i-locks set%s)", s.Name, plural)}, nil
}

// part is one leaf query of a defined procedure: its id in the
// procedure manager, its output schema, and its column names, computed
// once when the procedure is defined.
type part struct {
	id      int
	sch     *tuple.Schema
	columns []string
}

// accessPart runs one leaf query of a procedure through Cache and
// Invalidate and renders its rows as one block — the count is known, so
// the block is allocated once — reporting whether the cached value was
// usable. Inside a transaction it recomputes the query over the
// transaction's epoch instead and leaves the cache alone.
func (db *DB) accessPart(p part) (Section, bool) {
	var tuples [][]byte
	valid := false
	if db.tx != nil {
		tuples = query.Run(db.procs.MustGet(p.id).Plan, &query.Ctx{Meter: db.meter, Pager: db.pager})
	} else {
		valid = db.store.MustEntry(cache.ID(p.id)).UsableAt(db.pager.ReadStamp())
		tuples = db.strategy.Access(db.pager, p.id)
	}
	flat := make([]int64, 0, len(tuples)*p.sch.NumFields())
	for _, tup := range tuples {
		flat = appendValues(flat, p.sch, tup)
	}
	return Section{Columns: p.columns, Rows: rowHeaders(flat, p.sch.NumFields())}, valid
}

func (db *DB) execute(s *ExecuteStmt) (*Result, error) {
	parts, ok := db.procedures[s.Name]
	if !ok {
		return nil, fmt.Errorf("quel: unknown procedure %q", s.Name)
	}
	res := &Result{}
	if len(parts) > 1 {
		res.Sections = make([]Section, 0, len(parts)-1)
	}
	total := 0
	allValid := true
	for i, p := range parts {
		sec, valid := db.accessPart(p)
		allValid = allValid && valid
		total += len(sec.Rows)
		if i == 0 {
			res.Columns, res.Rows = sec.Columns, sec.Rows
		} else {
			res.Sections = append(res.Sections, sec)
		}
	}
	how := "from cache"
	switch {
	case db.tx != nil:
		how = "recomputed in transaction"
	case !allValid:
		how = "recomputed and cached"
	}
	res.Message = fmt.Sprintf("%d tuple(s) (%s)", total, how)
	return res, nil
}

func (db *DB) explain(s *ExplainStmt) (*Result, error) {
	var plans []query.Plan
	if s.Query != nil {
		plan, err := db.compile(s.Query)
		if err != nil {
			return nil, err
		}
		plans = []query.Plan{plan}
	} else {
		parts, ok := db.procedures[s.Proc]
		if !ok {
			return nil, fmt.Errorf("quel: unknown procedure %q", s.Proc)
		}
		for _, p := range parts {
			plans = append(plans, db.procs.MustGet(p.id).Plan)
		}
	}
	var out []string
	for _, plan := range plans {
		out = append(out, strings.TrimRight(query.Explain(plan), "\n"))
	}
	return &Result{Message: strings.Join(out, "\n")}, nil
}
