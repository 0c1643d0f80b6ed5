package vamana

// Durability and corruption surface. File-backed stores protect every
// 8 KiB page with a CRC32C checksum and commit each flush atomically
// through a double-write journal guarded by double-buffered metadata
// pages, so a crash at any point — including mid-write — leaves the
// store recoverable to a consistent state. Damage that recovery cannot
// route around surfaces as one of the typed errors below rather than as
// silently wrong query results.

import (
	"vamana/internal/pager"
)

var (
	// ErrChecksum reports that a page read from storage failed its CRC32C
	// verification — bit rot, a torn write, or a truncated file. The
	// wrapped error identifies the damaged page. Queries that touch a
	// damaged page fail with an error satisfying
	// errors.Is(err, ErrChecksum); undamaged pages remain readable.
	ErrChecksum = pager.ErrChecksum
	// ErrTornMeta reports that Open found no valid metadata copy: the
	// file is not a VAMANA store, or both double-buffered metadata pages
	// (or a committed journal they reference) are damaged beyond the
	// recovery protocol's reach.
	ErrTornMeta = pager.ErrTornMeta
)

// PageID identifies one 8 KiB page of a store's backing file, as reported
// by VerifyPages.
type PageID = pager.PageID

// VerifyPages flushes any buffered state and then checksums every durable
// page of the store, returning the number of pages checked and the ids of
// pages that failed verification. A clean store returns an empty corrupt
// list. In-memory databases have nothing durable to verify and report
// zero pages checked.
//
// This is an offline-style integrity sweep (it reads the whole file);
// normal reads verify lazily, page by page, as queries touch them.
func (db *DB) VerifyPages() (checked int, corrupt []PageID, err error) {
	return db.engine.VerifyPages()
}

// VerifyFile checksums every durable page of the store at path without
// opening it as a database: only the page-layer metadata must be intact
// (damage there is reported as ErrTornMeta), so a store whose catalog or
// index pages are corrupt — and which therefore cannot Open — can still
// be swept. This is what `vamana verify` runs. An interrupted commit is
// completed first, exactly as Open would.
func VerifyFile(path string) (checked int, corrupt []PageID, err error) {
	p, err := pager.Open(path)
	if err != nil {
		return 0, nil, err
	}
	defer p.Close()
	return p.Verify()
}
