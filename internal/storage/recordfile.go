package storage

import "fmt"

// RecordFile is an append-ordered file of fixed-size records packed into
// pages, the storage layout used for heap relations and scratch sets. The
// file is bound to a Disk; every metered access takes the calling
// session's Pager (the same convention as OrderedFile). Directory state
// is not internally synchronized — callers serialize mutations.
type RecordFile struct {
	disk    *Disk
	recSize int
	perPage int
	pages   []PageID
	n       int
}

// NewRecordFile creates an empty record file whose records are recSize
// bytes. At least one record must fit per page.
func NewRecordFile(disk *Disk, recSize int) *RecordFile {
	perPage := disk.PageSize() / recSize
	if recSize <= 0 || perPage < 1 {
		panic(fmt.Sprintf("storage: record size %d does not fit page size %d", recSize, disk.PageSize()))
	}
	return &RecordFile{disk: disk, recSize: recSize, perPage: perPage}
}

// Len returns the number of records.
func (f *RecordFile) Len() int { return f.n }

// RecordSize returns the fixed record width in bytes.
func (f *RecordFile) RecordSize() int { return f.recSize }

// PerPage returns the blocking factor (records per page).
func (f *RecordFile) PerPage() int { return f.perPage }

// Pages returns the number of pages currently holding records.
func (f *RecordFile) Pages() int { return len(f.pages) }

// Append stores a record at the end of the file and returns its index.
// Appending to a fresh page charges only the page write (at flush);
// appending into a partially filled page is a read-modify-write.
func (f *RecordFile) Append(pg *Pager, rec []byte) int {
	f.checkRec(rec)
	slot := f.n % f.perPage
	var buf []byte
	if slot == 0 {
		id := pg.AllocPage()
		f.pages = append(f.pages, id)
		buf = pg.Overwrite(id)
	} else {
		buf = pg.Update(f.pages[len(f.pages)-1])
	}
	copy(buf[slot*f.recSize:], rec)
	f.n++
	return f.n - 1
}

// Get returns a copy of record i.
func (f *RecordFile) Get(pg *Pager, i int) []byte {
	f.checkIndex(i)
	buf := pg.Read(f.pages[i/f.perPage])
	out := make([]byte, f.recSize)
	copy(out, buf[(i%f.perPage)*f.recSize:])
	return out
}

// Set overwrites record i in place (read-modify-write of its page).
func (f *RecordFile) Set(pg *Pager, i int, rec []byte) {
	f.checkIndex(i)
	f.checkRec(rec)
	buf := pg.Update(f.pages[i/f.perPage])
	copy(buf[(i%f.perPage)*f.recSize:], rec)
}

// Scan calls fn for every record in index order until fn returns false.
// The rec slice aliases the page frame and is valid only during the call.
func (f *RecordFile) Scan(pg *Pager, fn func(i int, rec []byte) bool) {
	for pi, id := range f.pages {
		buf := pg.Read(id)
		base := pi * f.perPage
		limit := f.perPage
		if rem := f.n - base; rem < limit {
			limit = rem
		}
		for s := 0; s < limit; s++ {
			if !fn(base+s, buf[s*f.recSize:(s+1)*f.recSize]) {
				return
			}
		}
	}
}

// SwapDelete removes record i by moving the last record into its slot,
// shrinking the file by one. Indices of other records are stable except
// for the moved last record.
func (f *RecordFile) SwapDelete(pg *Pager, i int) {
	f.checkIndex(i)
	last := f.n - 1
	if i != last {
		f.Set(pg, i, f.Get(pg, last))
	}
	f.n--
	if f.n%f.perPage == 0 && len(f.pages) > 0 {
		// Last page became empty; release it.
		lastPage := f.pages[len(f.pages)-1]
		f.pages = f.pages[:len(f.pages)-1]
		pg.Drop(lastPage)
		f.disk.Free(lastPage)
	}
}

// Clear frees every page, leaving an empty file. No I/O is charged;
// deallocation is a catalog operation.
func (f *RecordFile) Clear(pg *Pager) {
	for _, id := range f.pages {
		pg.Drop(id)
		f.disk.Free(id)
	}
	f.pages = f.pages[:0]
	f.n = 0
}

func (f *RecordFile) checkIndex(i int) {
	if i < 0 || i >= f.n {
		panic(fmt.Sprintf("storage: record %d out of range [0,%d)", i, f.n))
	}
}

func (f *RecordFile) checkRec(rec []byte) {
	if len(rec) != f.recSize {
		panic(fmt.Sprintf("storage: record of %d bytes, want %d", len(rec), f.recSize))
	}
}
