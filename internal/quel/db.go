package quel

import (
	"fmt"
	"strings"
	"sync"
	"sync/atomic"

	"dbproc/internal/cache"
	"dbproc/internal/metric"
	"dbproc/internal/proc"
	"dbproc/internal/query"
	"dbproc/internal/relation"
	"dbproc/internal/storage"
	"dbproc/internal/tuple"
)

// DB is a database: a catalog on one disk, and a procedure manager
// running stored procedures under Cache and Invalidate (with Always
// Recompute available through plain retrieves). It embeds its first
// Session, so a DB runs statements itself; NewSession opens more.
type DB struct {
	*Session

	cat   *relation.Catalog
	disk  *storage.Disk
	costs metric.Costs
	width int

	// ddl orders statements against DDL, because neither the catalog nor
	// the procedure table is versioned: create and define procedure hold
	// it exclusively, every other statement shares it while it runs.
	ddl sync.RWMutex

	procs      *proc.Manager
	strategy   *proc.CacheInvalidate
	store      *cache.Store
	procedures map[string][]part // procedure name -> its leaf queries
	nextID     int
	nextSeq    atomic.Uint64 // result keys; readers refresh concurrently

	// wrapPlan, when set (by the aliasing oracle's test), is applied to
	// every compiled plan before anything consumes it.
	wrapPlan func(query.Plan) query.Plan
}

// Session is one client of a DB, as engine.Session is of the engine: a
// private pager and meter over the shared disk, and its open transaction.
// Sessions run reads (retrieve, execute, explain) concurrently, each at a
// snapshot of the newest commit, sharing only the DDL lock. The disk has
// one update epoch, so the caller serializes the statements Writes
// reports and each transaction from Begin to its end (procserved's
// statement gate); a second writer panics in storage.Disk.BeginEpoch.
type Session struct {
	db    *DB
	pager *storage.Pager
	meter *metric.Meter
	tx    *Tx // the open transaction, nil outside one
}

// Open creates an empty database. pageSize and width follow the paper's
// defaults when 0 (4000-byte pages, 100-byte tuples); costs price each
// session's meter (metric.DefaultCosts for the paper's constants).
func Open(pageSize, width int, costs metric.Costs) *DB {
	if pageSize == 0 {
		pageSize = 4000
	}
	if width == 0 {
		width = 100
	}
	disk := storage.NewDisk(pageSize)
	db := &DB{
		cat:        relation.NewCatalog(),
		disk:       disk,
		costs:      costs,
		width:      width,
		procs:      proc.NewManager(),
		store:      cache.NewStore(disk),
		procedures: make(map[string][]part),
	}
	db.strategy = proc.NewCacheInvalidate(db.procs, db.store)
	db.Session = db.NewSession()
	return db
}

// NewSession opens another session on the database.
func (db *DB) NewSession() *Session {
	meter := metric.NewMeter(db.costs)
	return &Session{db: db, pager: storage.NewPager(db.disk, meter), meter: meter}
}

// Meter exposes the session's cost meter.
func (s *Session) Meter() *metric.Meter { return s.meter }

// Writes reports whether stmt changes the database: append, delete and
// replace update base tuples, create and define procedure are DDL. Every
// other statement only reads.
func Writes(stmt Statement) bool {
	update, ddl := classify(stmt)
	return update || ddl
}

func classify(stmt Statement) (update, ddl bool) {
	switch stmt.(type) {
	case *AppendStmt, *DeleteStmt, *ReplaceStmt:
		return true, false
	case *CreateStmt, *DefineProcStmt:
		return false, true
	}
	return false, false
}

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
func (s *Session) Run(input string) (*Result, error) {
	stmt, err := Parse(input)
	if err != nil {
		return nil, err
	}
	return s.RunParsed(stmt)
}

// RunParsed executes an already-parsed statement — the path a server
// takes for prepared statements, where Parse ran once at Prepare time.
// Inside a transaction every statement runs in the transaction's epoch.
// Outside one, append, delete and replace run as update epochs of their
// own and every other statement reads at a snapshot of the newest commit.
// An update that fails, by error or panic, abandons its epoch — the
// statement's, or the transaction's, which it aborts — so it changes
// nothing.
func (s *Session) RunParsed(stmt Statement) (res *Result, err error) {
	update, ddl := classify(stmt)
	if ddl {
		s.db.ddl.Lock()
		defer s.db.ddl.Unlock()
	} else {
		s.db.ddl.RLock()
		defer s.db.ddl.RUnlock()
	}
	tx := s.tx
	if tx != nil && tx.aborted {
		return nil, errAborted
	}
	if tx == nil {
		s.pager.OpenScope(update)
	}
	defer func() {
		if r := recover(); r != nil {
			res, err = nil, fmt.Errorf("quel: %v", r)
		}
		switch {
		case update && err != nil:
			s.pager.AbortScope()
			if tx != nil {
				tx.aborted = true
				err = fmt.Errorf("%w (transaction rolled back)", err)
			}
		case tx == nil:
			s.closeScope(update)
		}
	}()
	s.pager.BeginOp()
	before := s.meter.Snapshot()
	res, err = s.exec(stmt, ddl)
	s.pager.Flush()
	if err != nil {
		return nil, err
	}
	res.CostMs = s.meter.Since(before).Milliseconds(s.meter.Costs())
	return res, nil
}

// closeScope closes a statement's or a transaction's scope: a read
// releases its snapshot; an update publishes at the next commit stamp and
// version GC follows.
func (s *Session) closeScope(update bool) {
	s.pager.CloseScope(s.db.disk.CommitStamp() + 1)
	if update {
		s.db.disk.GCVersions()
	}
}

func (s *Session) exec(stmt Statement, ddl bool) (*Result, error) {
	// Catalog and procedure definitions are not versioned, so a rollback
	// could not take them back.
	if s.tx != nil && ddl {
		return nil, fmt.Errorf("quel: DDL is not allowed inside a transaction")
	}
	switch st := stmt.(type) {
	case *CreateStmt:
		return s.create(st)
	case *AppendStmt:
		return s.append_(st)
	case *RetrieveStmt:
		return s.retrieve(st)
	case *DeleteStmt:
		return s.delete_(st)
	case *ReplaceStmt:
		return s.replace(st)
	case *DefineProcStmt:
		return s.defineProc(st)
	case *ExecuteStmt:
		return s.execute(st)
	case *ExplainStmt:
		return s.explain(st)
	default:
		return nil, fmt.Errorf("quel: unhandled statement %T", stmt)
	}
}

func (s *Session) create(st *CreateStmt) (*Result, error) {
	if s.db.cat.Lookup(st.Name) != nil {
		return nil, fmt.Errorf("quel: relation %q already exists", st.Name)
	}
	width := st.Width
	if width == 0 {
		width = s.db.width
	}
	fields := make([]tuple.Field, len(st.Fields))
	for i, f := range st.Fields {
		fields[i] = tuple.Field{Name: f}
	}
	sch := tuple.NewSchema(st.Name, width, fields...)
	var rel *relation.Relation
	switch st.Org {
	case "cluster":
		if sch.FieldIndex("tid") < 0 {
			return nil, fmt.Errorf("quel: clustered relations need a unique 'tid' field (the clustering tiebreaker)")
		}
		rel = relation.NewBTree(s.pager.Disk(), sch, st.Key, "tid", 20)
	case "hash":
		buckets := st.Buckets
		if buckets == 0 {
			buckets = 16
		}
		rel = relation.NewHash(s.pager.Disk(), sch, st.Key, buckets)
	default:
		return nil, fmt.Errorf("quel: unknown organization %q", st.Org)
	}
	s.db.cat.Define(rel)
	return &Result{Message: fmt.Sprintf("created %s (%s on %s, width %d)", st.Name, st.Org, st.Key, width)}, nil
}

func (s *Session) append_(st *AppendStmt) (*Result, error) {
	rel := s.db.cat.Lookup(st.Rel)
	if rel == nil {
		return nil, fmt.Errorf("quel: unknown relation %q", st.Rel)
	}
	sch := rel.Schema()
	tup := sch.New()
	for _, a := range st.Values {
		if sch.FieldIndex(a.Field) < 0 {
			return nil, fmt.Errorf("quel: relation %q has no attribute %q", st.Rel, a.Field)
		}
		sch.SetByName(tup, a.Field, a.Value)
	}
	rel.Insert(s.pager, tup)
	// Tell the stored-procedure layer, so conflicting cached results are
	// invalidated.
	s.db.strategy.OnUpdate(s.pager, proc.Delta{Rel: rel, Inserted: [][]byte{tup}})
	return &Result{Message: "appended 1 tuple to " + st.Rel, Affected: 1}, nil
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
func (s *Session) collect(plan query.Plan) *Result {
	sch := plan.Schema()
	var flat []int64
	plan.Execute(&query.Ctx{Meter: s.meter, Pager: s.pager}, func(tup []byte) bool {
		flat = appendValues(flat, sch, tup)
		return true
	})
	res := &Result{Columns: columnsOf(sch), Rows: rowHeaders(flat, sch.NumFields())}
	res.Message = fmt.Sprintf("%d tuple(s)", len(res.Rows))
	return res
}

func (s *Session) retrieve(st *RetrieveStmt) (*Result, error) {
	plan, err := s.db.compile(st)
	if err != nil {
		return nil, err
	}
	return s.collect(plan), nil
}

// matchTuples evaluates single-relation quals and returns the matching
// base tuples, reconstructed in schema field order.
func (s *Session) matchTuples(relName string, quals []Qual) (*relation.Relation, [][]byte, error) {
	rel := s.db.cat.Lookup(relName)
	if rel == nil {
		return nil, nil, fmt.Errorf("quel: unknown relation %q", relName)
	}
	for _, q := range quals {
		if (!q.Left.Const && q.Left.Rel != relName) || (!q.Right.Const && q.Right.Rel != relName) {
			return nil, nil, fmt.Errorf("quel: delete/replace quals may only reference %q", relName)
		}
	}
	plan, err := s.db.compile(&RetrieveStmt{
		Targets: []Target{{Rel: relName, All: true}},
		Quals:   quals,
	})
	if err != nil {
		return nil, nil, err
	}
	sch := rel.Schema()
	var tuples [][]byte
	plan.Execute(&query.Ctx{Meter: s.meter, Pager: s.pager}, func(row []byte) bool {
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

func (s *Session) removeBase(rel *relation.Relation, tup []byte) {
	if rel.Tree() != nil {
		rel.DeleteKeyed(s.pager, rel.Key(tup))
		return
	}
	rel.Hash().DeleteExact(s.pager, tup)
}

func (s *Session) delete_(st *DeleteStmt) (*Result, error) {
	rel, tuples, err := s.matchTuples(st.Rel, st.Quals)
	if err != nil {
		return nil, err
	}
	for _, tup := range tuples {
		s.removeBase(rel, tup)
	}
	if len(tuples) > 0 {
		s.db.strategy.OnUpdate(s.pager, proc.Delta{Rel: rel, Deleted: tuples})
	}
	return &Result{
		Message:  fmt.Sprintf("deleted %d tuple(s) from %s", len(tuples), st.Rel),
		Affected: int64(len(tuples)),
	}, nil
}

func (s *Session) replace(st *ReplaceStmt) (*Result, error) {
	rel, tuples, err := s.matchTuples(st.Rel, st.Quals)
	if err != nil {
		return nil, err
	}
	sch := rel.Schema()
	for _, a := range st.Values {
		if sch.FieldIndex(a.Field) < 0 {
			return nil, fmt.Errorf("quel: relation %q has no attribute %q", st.Rel, a.Field)
		}
	}
	var inserted [][]byte
	for _, old := range tuples {
		newTup := append([]byte(nil), old...)
		for _, a := range st.Values {
			sch.SetByName(newTup, a.Field, a.Value)
		}
		s.removeBase(rel, old)
		rel.Insert(s.pager, newTup)
		inserted = append(inserted, newTup)
	}
	if len(tuples) > 0 {
		s.db.strategy.OnUpdate(s.pager, proc.Delta{Rel: rel, Deleted: tuples, Inserted: inserted})
	}
	return &Result{
		Message:  fmt.Sprintf("replaced %d tuple(s) in %s", len(tuples), st.Rel),
		Affected: int64(len(tuples)),
	}, nil
}

func (s *Session) defineProc(st *DefineProcStmt) (*Result, error) {
	if _, dup := s.db.procedures[st.Name]; dup {
		return nil, fmt.Errorf("quel: procedure %q already defined", st.Name)
	}
	// Compile every query before defining anything, so a failed part
	// leaves no partial procedure behind.
	plans := make([]query.Plan, len(st.Queries))
	for i, q := range st.Queries {
		p, err := s.db.compile(q)
		if err != nil {
			return nil, fmt.Errorf("query %d of %s: %w", i+1, st.Name, err)
		}
		plans[i] = p
	}
	parts := make([]part, len(plans))
	seq := &s.db.nextSeq
	for i, plan := range plans {
		id := s.db.nextID
		s.db.nextID++
		// Sequence-valued result keys: unique and ascending in plan
		// output order, all Cache and Invalidate needs.
		def := proc.NewDefinitionWithKey(id, fmt.Sprintf("%s#%d", st.Name, i+1), plan,
			func([]byte) uint64 { return seq.Add(1) })
		s.db.procs.Define(def)
		parts[i] = part{id: id, sch: plan.Schema(), columns: columnsOf(plan.Schema())}
	}
	// Warming the caches is setup, not workload: mute both the pager's
	// I/O charging and the meter's CPU events.
	prevCharge := s.pager.SetCharging(false)
	prevMute := s.meter.SetMuted(true)
	for _, p := range parts {
		s.db.strategy.Adopt(s.pager, p.id)
	}
	s.pager.BeginOp()
	s.meter.SetMuted(prevMute)
	s.pager.SetCharging(prevCharge)
	s.db.procedures[st.Name] = parts
	plural := ""
	if len(parts) > 1 {
		plural = fmt.Sprintf(", %d queries", len(parts))
	}
	return &Result{Message: fmt.Sprintf("defined procedure %s (cached, i-locks set%s)", st.Name, plural)}, nil
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
func (s *Session) accessPart(p part) (Section, bool) {
	var tuples [][]byte
	valid := false
	if s.tx != nil {
		tuples = query.Run(s.db.procs.MustGet(p.id).Plan, &query.Ctx{Meter: s.meter, Pager: s.pager})
	} else {
		valid = s.db.store.MustEntry(cache.ID(p.id)).UsableAt(s.pager.ReadStamp())
		tuples = s.db.strategy.Access(s.pager, p.id)
	}
	flat := make([]int64, 0, len(tuples)*p.sch.NumFields())
	for _, tup := range tuples {
		flat = appendValues(flat, p.sch, tup)
	}
	return Section{Columns: p.columns, Rows: rowHeaders(flat, p.sch.NumFields())}, valid
}

func (s *Session) execute(st *ExecuteStmt) (*Result, error) {
	parts, ok := s.db.procedures[st.Name]
	if !ok {
		return nil, fmt.Errorf("quel: unknown procedure %q", st.Name)
	}
	res := &Result{}
	if len(parts) > 1 {
		res.Sections = make([]Section, 0, len(parts)-1)
	}
	total := 0
	allValid := true
	for i, p := range parts {
		sec, valid := s.accessPart(p)
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
	case s.tx != nil:
		how = "recomputed in transaction"
	case !allValid:
		how = "recomputed and cached"
	}
	res.Message = fmt.Sprintf("%d tuple(s) (%s)", total, how)
	return res, nil
}

func (s *Session) explain(st *ExplainStmt) (*Result, error) {
	var plans []query.Plan
	if st.Query != nil {
		plan, err := s.db.compile(st.Query)
		if err != nil {
			return nil, err
		}
		plans = []query.Plan{plan}
	} else {
		parts, ok := s.db.procedures[st.Proc]
		if !ok {
			return nil, fmt.Errorf("quel: unknown procedure %q", st.Proc)
		}
		for _, p := range parts {
			plans = append(plans, s.db.procs.MustGet(p.id).Plan)
		}
	}
	var out []string
	for _, plan := range plans {
		out = append(out, strings.TrimRight(query.Explain(plan), "\n"))
	}
	return &Result{Message: strings.Join(out, "\n")}, nil
}
