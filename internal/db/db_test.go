package db

import (
	"fmt"
	"reflect"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func adsTable(t *testing.T) (*DB, *Table) {
	t.Helper()
	d := New()
	tab, err := d.CreateTable("ads", []Column{
		{Name: "ad_id", Type: Int},
		{Name: "campaign_id", Type: Int},
		{Name: "label", Type: String},
	}, "ad_id")
	if err != nil {
		t.Fatal(err)
	}
	return d, tab
}

func TestInsertGet(t *testing.T) {
	_, tab := adsTable(t)
	if err := tab.Insert(1, 100, "shoes"); err != nil {
		t.Fatal(err)
	}
	row, ok := tab.Get(1)
	if !ok {
		t.Fatal("row not found")
	}
	if row[1] != int64(100) || row[2] != "shoes" {
		t.Fatalf("row = %v", row)
	}
	if _, ok := tab.Get(2); ok {
		t.Fatal("phantom row")
	}
}

func TestIntNormalization(t *testing.T) {
	_, tab := adsTable(t)
	if err := tab.Insert(int64(7), 1, "x"); err != nil {
		t.Fatal(err)
	}
	// Lookup with plain int must find the int64-keyed row.
	if _, ok := tab.Get(7); !ok {
		t.Fatal("int/int64 normalization broken")
	}
}

func TestTypeChecking(t *testing.T) {
	_, tab := adsTable(t)
	err := tab.Insert("not-an-int", 1, "x")
	if err == nil || !strings.Contains(err.Error(), "want INT") {
		t.Fatalf("got %v", err)
	}
	err = tab.Insert(1, 2, 3)
	if err == nil || !strings.Contains(err.Error(), "want STRING") {
		t.Fatalf("got %v", err)
	}
	err = tab.Insert(1, 2)
	if err == nil || !strings.Contains(err.Error(), "got 2 values") {
		t.Fatalf("got %v", err)
	}
}

func TestDuplicatePKAndUpsert(t *testing.T) {
	_, tab := adsTable(t)
	if err := tab.Insert(1, 100, "a"); err != nil {
		t.Fatal(err)
	}
	if err := tab.Insert(1, 200, "b"); err == nil {
		t.Fatal("duplicate insert must fail")
	}
	if err := tab.Upsert(1, 200, "b"); err != nil {
		t.Fatal(err)
	}
	row, _ := tab.Get(1)
	if row[1] != int64(200) {
		t.Fatalf("upsert did not replace: %v", row)
	}
	if tab.Len() != 1 {
		t.Fatalf("len = %d", tab.Len())
	}
}

func TestSecondaryIndex(t *testing.T) {
	_, tab := adsTable(t)
	for i := 0; i < 10; i++ {
		if err := tab.Insert(i, 100+i%2, "x"); err != nil {
			t.Fatal(err)
		}
	}
	if err := tab.CreateIndex("campaign_id"); err != nil {
		t.Fatal(err)
	}
	rows, err := tab.LookupIndexed("campaign_id", 100)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 5 {
		t.Fatalf("got %d rows, want 5", len(rows))
	}
	// Index must track upserts.
	if err := tab.Upsert(0, 101, "x"); err != nil {
		t.Fatal(err)
	}
	rows, _ = tab.LookupIndexed("campaign_id", 100)
	if len(rows) != 4 {
		t.Fatalf("after upsert: got %d rows, want 4", len(rows))
	}
	rows, _ = tab.LookupIndexed("campaign_id", 101)
	if len(rows) != 6 {
		t.Fatalf("after upsert: got %d rows, want 6", len(rows))
	}
}

func TestLookupUnindexedFails(t *testing.T) {
	_, tab := adsTable(t)
	_, err := tab.LookupIndexed("label", "x")
	if err == nil || !strings.Contains(err.Error(), "not indexed") {
		t.Fatalf("got %v", err)
	}
}

func TestUpdateCol(t *testing.T) {
	_, tab := adsTable(t)
	if err := tab.Insert(1, 100, "a"); err != nil {
		t.Fatal(err)
	}
	if err := tab.CreateIndex("campaign_id"); err != nil {
		t.Fatal(err)
	}
	ok, err := tab.UpdateCol(1, "campaign_id", 999)
	if err != nil || !ok {
		t.Fatalf("update: %v %v", ok, err)
	}
	rows, _ := tab.LookupIndexed("campaign_id", 999)
	if len(rows) != 1 {
		t.Fatal("index not maintained by UpdateCol")
	}
	ok, err = tab.UpdateCol(42, "campaign_id", 1)
	if err != nil || ok {
		t.Fatalf("update of missing row: %v %v", ok, err)
	}
}

func TestScanAndJoin(t *testing.T) {
	d := New()
	ads, _ := d.CreateTable("ads", []Column{
		{Name: "ad_id", Type: Int}, {Name: "campaign_id", Type: Int},
	}, "ad_id")
	camps, _ := d.CreateTable("campaigns", []Column{
		{Name: "campaign_id", Type: Int}, {Name: "name", Type: String},
	}, "campaign_id")
	for i := 0; i < 6; i++ {
		if err := ads.Insert(i, i%2); err != nil {
			t.Fatal(err)
		}
	}
	if err := camps.Insert(0, "alpha"); err != nil {
		t.Fatal(err)
	}
	if err := camps.Insert(1, "beta"); err != nil {
		t.Fatal(err)
	}
	rows, err := Join(ads, camps, "campaign_id", "campaign_id")
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 6 {
		t.Fatalf("join rows = %d, want 6", len(rows))
	}
	for _, r := range rows {
		if r[1] != r[2] {
			t.Fatalf("join key mismatch in %v", r)
		}
	}
	count := 0
	ads.Scan(func(Row) bool { count++; return count < 3 })
	if count != 3 {
		t.Fatalf("scan early stop broken: %d", count)
	}
}

func TestRowsAreCopies(t *testing.T) {
	_, tab := adsTable(t)
	if err := tab.Insert(1, 100, "a"); err != nil {
		t.Fatal(err)
	}
	row, _ := tab.Get(1)
	row[2] = "mutated"
	row2, _ := tab.Get(1)
	if row2[2] != "a" {
		t.Fatal("Get must return a copy")
	}
}

func TestConcurrentReadersAndWriters(t *testing.T) {
	_, tab := adsTable(t)
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				_ = tab.Upsert(w*1000+i, i, "x")
				tab.Get(w*1000 + i)
			}
		}(w)
	}
	wg.Wait()
	if tab.Len() != 800 {
		t.Fatalf("len = %d, want 800", tab.Len())
	}
}

func TestOpDelay(t *testing.T) {
	d, tab := adsTable(t)
	if err := tab.Insert(1, 1, "x"); err != nil {
		t.Fatal(err)
	}
	d.SetOpDelay(2 * time.Millisecond)
	start := time.Now()
	tab.Get(1)
	if elapsed := time.Since(start); elapsed < 2*time.Millisecond {
		t.Fatalf("op delay not applied: %v", elapsed)
	}
	d.SetOpDelay(0)
	start = time.Now()
	tab.Get(1)
	if elapsed := time.Since(start); elapsed > time.Millisecond {
		t.Fatalf("op delay not cleared: %v", elapsed)
	}
}

func TestSchemaErrors(t *testing.T) {
	d := New()
	if _, err := d.CreateTable("t", []Column{{Name: "a"}, {Name: "a"}}, "a"); err == nil {
		t.Fatal("duplicate column must fail")
	}
	if _, err := d.CreateTable("t", []Column{{Name: "a"}}, "zz"); err == nil {
		t.Fatal("missing pk column must fail")
	}
	if _, err := d.CreateTable("t", []Column{{Name: "a"}}, "a"); err != nil {
		t.Fatal(err)
	}
	if _, err := d.CreateTable("t", []Column{{Name: "a"}}, "a"); err == nil {
		t.Fatal("duplicate table must fail")
	}
	if _, err := d.Table("nope"); err == nil {
		t.Fatal("missing table must fail")
	}
	if got := d.Tables(); len(got) != 1 || got[0] != "t" {
		t.Fatalf("tables = %v", got)
	}
}

// TestLockFreeReadersSeeWholeRows runs point lookups of every flavour
// against writers that replace and update the same rows. Every stored
// state of a row satisfies label = "c" + (campaign mod 1000), so a row a
// reader sees half-written breaks it; and a Row a reader holds never
// changes afterwards, which is what copy-on-write UpdateCol promises.
// Run it under -race.
func TestLockFreeReadersSeeWholeRows(t *testing.T) {
	_, tab := adsTable(t)
	labels, err := tab.Col("label")
	if err != nil {
		t.Fatal(err)
	}
	const keys, rounds = 8, 400
	label := func(c int64) string { return "c" + strconv.FormatInt(c%1000, 10) }
	for k := 0; k < keys; k++ {
		if err := tab.Insert(k, 0, label(0)); err != nil {
			t.Fatal(err)
		}
	}
	var wg sync.WaitGroup
	var stop atomic.Bool
	errs := make(chan string, 16)
	check := func(row Row) {
		if c := row[1].(int64); row[2] != label(c) {
			errs <- fmt.Sprintf("torn row %v", row)
		}
	}
	for r := 0; r < 3; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			var held, copied Row
			for i := 0; !stop.Load() && len(errs) == 0; i++ {
				k := int64(i % keys)
				switch r {
				case 0:
					row, _ := tab.Get(k)
					check(row)
				case 1:
					if v, ok := tab.GetVal(k, labels); !ok || !strings.HasPrefix(v.(string), "c") {
						errs <- fmt.Sprintf("GetVal(%d) = %v, %v", k, v, ok)
					}
				default:
					if _, ok := tab.GetIntVal(k, 1); !ok {
						errs <- fmt.Sprintf("GetIntVal(%d) missed", k)
					}
					if !reflect.DeepEqual(held, copied) {
						errs <- fmt.Sprintf("a held row changed from %v to %v", copied, held)
					}
					held, _ = tab.lookup(k)
					check(held)
					copied = append(Row(nil), held...)
				}
			}
		}(r)
	}
	for i := 1; i <= rounds; i++ {
		c, k := int64(i), i%keys
		if err := tab.Upsert(k, c, label(c)); err != nil {
			t.Fatal(err)
		}
		if ok, err := tab.UpdateCol(k, "campaign_id", c+1000); err != nil || !ok {
			t.Fatalf("UpdateCol: %v %v", ok, err)
		}
		if err := tab.Insert(keys+i, c, label(c)); err != nil {
			t.Fatal(err)
		}
	}
	stop.Store(true)
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Error(e)
	}
}

// TestUpdateColCopiesTheRow: a Row handed out before an UpdateCol keeps
// its old value.
func TestUpdateColCopiesTheRow(t *testing.T) {
	_, tab := adsTable(t)
	if err := tab.Insert(1, 100, "a"); err != nil {
		t.Fatal(err)
	}
	held, _ := tab.lookup(int64(1))
	if ok, err := tab.UpdateCol(1, "label", "b"); err != nil || !ok {
		t.Fatalf("update: %v %v", ok, err)
	}
	if held[2] != "a" {
		t.Fatalf("UpdateCol mutated a row a reader holds: %v", held)
	}
	if v, _ := tab.GetVal(1, 2); v != "b" {
		t.Fatalf("GetVal after UpdateCol = %v, want b", v)
	}
}

// TestReadAfterWrite: every write is visible to the next lookup of every
// flavour, also once the read index has been published, and the read
// index of a STRING key serves string lookups.
func TestReadAfterWrite(t *testing.T) {
	_, tab := adsTable(t)
	for i := 0; i < 100; i++ {
		if err := tab.Insert(i, 1000+i, "x"); err != nil {
			t.Fatal(err)
		}
		for j := 0; j <= i; j++ { // enough reads to publish the index
			if v, ok := tab.GetIntVal(int64(j), 1); !ok || v != int64(1000+j) {
				t.Fatalf("after inserting %d: GetIntVal(%d) = %v, %v", i, j, v, ok)
			}
		}
	}
	if tab.idx.Load() == nil {
		t.Fatal("read-only phase never published the read index")
	}
	if err := tab.Upsert(7, 7, "y"); err != nil {
		t.Fatal(err)
	}
	if v, _ := tab.GetVal(7, 1); v != int64(7) {
		t.Fatalf("GetVal after Upsert = %v", v)
	}
	if _, err := tab.UpdateCol(8, "campaign_id", 8); err != nil {
		t.Fatal(err)
	}
	if v, _ := tab.GetIntVal(8, 1); v != int64(8) {
		t.Fatalf("GetIntVal after UpdateCol = %v", v)
	}

	d := New()
	plugs, err := d.CreateTable("plugs", []Column{{Name: "plug", Type: String}, {Name: "kind", Type: String}}, "plug")
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		if err := plugs.Insert(strconv.Itoa(i), "k"+strconv.Itoa(i)); err != nil {
			t.Fatal(err)
		}
		if v, ok := plugs.GetVal(strconv.Itoa(i), 1); !ok || v != "k"+strconv.Itoa(i) {
			t.Fatalf("GetVal(%d) = %v, %v", i, v, ok)
		}
	}
	plugs.Scan(func(Row) bool { return true }) // publishes the index
	if plugs.idx.Load() == nil || plugs.idx.Load().strs == nil {
		t.Fatal("STRING key has no typed read index")
	}
	if v, ok := plugs.GetVal("3", 1); !ok || v != "k3" {
		t.Fatalf("GetVal through the index = %v, %v", v, ok)
	}
}

// TestGetStrValReadsBytes checks the byte-keyed lookup of a STRING key
// against GetVal, before the read index exists (under the lock), through
// it without allocating, and for a missing key.
func TestGetStrValReadsBytes(t *testing.T) {
	d := New()
	plugs, err := d.CreateTable("plugs", []Column{{Name: "plug", Type: String}, {Name: "kind", Type: String}}, "plug")
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		if err := plugs.Insert("0/"+strconv.Itoa(i), "k"+strconv.Itoa(i)); err != nil {
			t.Fatal(err)
		}
		if v, ok := plugs.GetStrVal([]byte("0/"+strconv.Itoa(i)), 1); !ok || v != "k"+strconv.Itoa(i) {
			t.Fatalf("GetStrVal(0/%d) after its insert = %v, %v", i, v, ok)
		}
	}
	plugs.Scan(func(Row) bool { return true }) // publishes the index
	key := []byte("0/7")
	if v, ok := plugs.GetStrVal(key, 1); !ok || v != "k7" {
		t.Fatalf("GetStrVal through the index = %v, %v", v, ok)
	}
	if a := testing.AllocsPerRun(100, func() { plugs.GetStrVal(key, 1) }); a != 0 {
		t.Errorf("GetStrVal allocates %.1f times per lookup", a)
	}
	if v, ok := plugs.GetStrVal([]byte("9/9"), 1); ok {
		t.Fatalf("GetStrVal of a missing key = %v, true", v)
	}
}

// TestBulkLoadIsLinear guards the write path: loading 4n rows allocates
// at most 4.5× the bytes of loading n, so no write copies the read
// index (that would be quadratic). A few reads ride along with the load,
// as they do when a table is built while queried.
func TestBulkLoadIsLinear(t *testing.T) {
	load := func(n int) uint64 {
		var before, after runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&before)
		_, tab := adsTable(t)
		for i := 0; i < n; i++ {
			if err := tab.Insert(i, i, "x"); err != nil {
				t.Fatal(err)
			}
			if i%64 == 0 {
				tab.GetIntVal(int64(i), 1)
			}
		}
		runtime.ReadMemStats(&after)
		return after.TotalAlloc - before.TotalAlloc
	}
	const n = 3000
	load(n) // warm up
	small, big := load(n), load(4*n)
	if ratio := float64(big) / float64(small); ratio > 4.5 {
		t.Fatalf("loading %d rows allocated %d B, %d rows %d B: %.2f× (> 4.5×)", 4*n, big, n, small, ratio)
	}
}

// TestRebuildsAreAmortized: a table that alternates one write with one
// read never pays a full rebuild per read.
func TestRebuildsAreAmortized(t *testing.T) {
	_, tab := adsTable(t)
	for i := 0; i < 1000; i++ {
		if err := tab.Insert(i, i, "x"); err != nil {
			t.Fatal(err)
		}
	}
	rebuilds := 0
	for i := 1000; i < 3000; i++ {
		if err := tab.Insert(i, i, "x"); err != nil {
			t.Fatal(err)
		}
		tab.GetIntVal(int64(i), 1)
		if tab.idx.Load() != nil {
			rebuilds++
		}
	}
	// Each rebuild of ≥ 1000 rows needs ≥ 500 operations since the last.
	if rebuilds > 2000/250 {
		t.Fatalf("%d rebuilds in 2000 insert/read pairs", rebuilds)
	}
}
