package vamana

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"testing"
)

// Batched execution must not change governance accounting. The executor
// pulls tuples in batches of up to ExecBatchSize, but budgets are charged
// per delivered result and per decoded record — so a limit that trips in
// the middle of a batch must report the same typed error, and the same
// exact Used, as tuple-at-a-time execution, and the half-drained batch
// must never leak out to the caller.

// TestBudgetMaxResultsMidBatch trips MaxResults at a point that falls
// mid-batch for every real batch size: exactly Limit results stream out,
// and the error is a *BudgetError whose Used is the first count past the
// limit — not the batch boundary the executor had buffered up to.
func TestBudgetMaxResultsMidBatch(t *testing.T) {
	for _, batch := range []int{1, 2, 4, 64, 256} {
		t.Run(fmt.Sprintf("batch=%d", batch), func(t *testing.T) {
			db, err := openWith(Options{}, benchKnobs{execBatch: batch})
			if err != nil {
				t.Fatal(err)
			}
			defer db.Close()
			doc := loadAuction(t, db, 0.01)

			res, err := db.QueryContext(context.Background(), doc, "//person/address",
				WithMaxResults(3))
			if err != nil {
				t.Fatal(err)
			}
			n := 0
			for res.Next() {
				n++
			}
			if n != 3 {
				t.Errorf("delivered %d results under WithMaxResults(3) at batch %d, want exactly 3", n, batch)
			}
			var be *BudgetError
			if err := res.Err(); !errors.As(err, &be) {
				t.Fatalf("err = %v, want a *BudgetError", err)
			}
			if be.Budget != "results" || be.Limit != 3 || be.Used != 4 {
				t.Errorf("BudgetError = %+v, want {results 3 4}", be)
			}
		})
	}
}

// TestBudgetMaxDecodedRecordsMidBatch does the same for the
// record-decode budget: scanning batches of index entries must still
// charge record decodes one by one, so Used lands exactly one past the
// limit regardless of batch size.
func TestBudgetMaxDecodedRecordsMidBatch(t *testing.T) {
	for _, batch := range []int{1, 64, 256} {
		t.Run(fmt.Sprintf("batch=%d", batch), func(t *testing.T) {
			db, err := openWith(Options{}, benchKnobs{execBatch: batch})
			if err != nil {
				t.Fatal(err)
			}
			defer db.Close()
			doc := loadAuction(t, db, 0.01)

			res, err := db.QueryContext(context.Background(), doc, heavyExpr,
				WithMaxDecodedRecords(10))
			if err == nil {
				for res.Next() {
				}
				err = res.Err()
			}
			var be *BudgetError
			if !errors.As(err, &be) {
				t.Fatalf("err = %v, want a *BudgetError", err)
			}
			if be.Budget != "decoded-records" || be.Limit != 10 || be.Used != 11 {
				t.Errorf("BudgetError = %+v, want {decoded-records 10 11}", be)
			}
		})
	}
}

// TestCancelMidBatch cancels a streaming query after a few results — with
// the default batch size the executor is then sitting on a half-drained
// buffer — and checks the stream dies with the typed error, the buffered
// remainder is abandoned rather than flushed, and the pooled run state
// the abandoned batch lived in is returned clean: the same DB must
// immediately serve the same query correctly, including from other
// goroutines (the -race build of this test is wired into check.sh).
func TestCancelMidBatch(t *testing.T) {
	db := openDB(t)
	doc := loadAuction(t, db, 0.05)

	// Reference result from an ungoverned run.
	ref, err := db.Query(doc, heavyExpr)
	if err != nil {
		t.Fatal(err)
	}
	want, err := ref.Keys()
	if err != nil {
		t.Fatal(err)
	}
	if len(want) < 16 {
		t.Fatalf("fixture yields only %d results; need a bigger one", len(want))
	}

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	res, err := db.QueryContext(ctx, doc, heavyExpr)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if !res.Next() {
			t.Fatalf("query produced only %d results before cancel", i)
		}
	}
	cancel()
	// Cancellation is polled every 256 units of work; the buffered batch
	// must not keep the stream alive past that.
	extra := 0
	for res.Next() {
		if extra++; extra > 1024 {
			t.Fatal("iterator still yielding 1024 results after cancel")
		}
	}
	if err := res.Err(); !errors.Is(err, ErrCanceled) {
		t.Errorf("err = %v, want ErrCanceled", err)
	}
	res.Close()

	// The canceled run's pooled state must come back clean: rerun the
	// query to completion, concurrently, and compare full key streams.
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 3; i++ {
				res, err := db.Query(doc, heavyExpr)
				if err != nil {
					t.Error(err)
					return
				}
				got, err := res.Keys()
				if err != nil {
					t.Error(err)
					return
				}
				if len(got) != len(want) {
					t.Errorf("rerun after cancel returned %d keys, want %d", len(got), len(want))
					return
				}
				for j := range got {
					if got[j] != want[j] {
						t.Errorf("rerun after cancel: key %d = %s, want %s", j, got[j], want[j])
						return
					}
				}
			}
		}()
	}
	wg.Wait()
}
