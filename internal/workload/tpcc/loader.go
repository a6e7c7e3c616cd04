package tpcc

import (
	"fmt"
	"math/rand"
	"sync"

	"hiengine/internal/core"
	"hiengine/internal/engineapi"
)

// Scale sets the per-warehouse cardinalities. FullScale matches the TPC-C
// specification; tests use SmallScale to keep runtimes sane while exercising
// the same code paths.
type Scale struct {
	Districts  int
	Customers  int // per district
	Items      int
	InitOrders int // per district
}

// FullScale is the specification scale (~100 MB per warehouse, matching the
// paper's loading note).
func FullScale() Scale {
	return Scale{Districts: DistrictsPerWarehouse, Customers: CustomersPerDistrict,
		Items: ItemCount, InitOrders: InitialOrdersPerDist}
}

// SmallScale is a reduced dataset for tests and quick benchmarks.
func SmallScale() Scale {
	return Scale{Districts: DistrictsPerWarehouse, Customers: 30, Items: 200, InitOrders: 10}
}

// BenchScale is a middle ground for the paper-figure benchmark harness.
func BenchScale() Scale {
	return Scale{Districts: DistrictsPerWarehouse, Customers: 300, Items: 5000, InitOrders: 100}
}

// lastNames builds TPC-C customer last names from the standard syllables.
var lastNameSyllables = []string{"BAR", "OUGHT", "ABLE", "PRI", "PRES", "ESE", "ANTI", "CALLY", "ATION", "EING"}

// LastName returns the spec last name for number n in [0, 999].
func LastName(n int) string {
	return lastNameSyllables[n/100] + lastNameSyllables[(n/10)%10] + lastNameSyllables[n%10]
}

// nuRandCLast is the spec's constant C for the customer-last-name NURand.
const nuRandCLast = 123

// nuRand is the TPC-C non-uniform random function (the spec's NURand).
func nuRand(rng *rand.Rand, a, c, x, y int) int {
	return (((rng.Intn(a+1) | (rng.Intn(y-x+1) + x)) + c) % (y - x + 1)) + x
}

// randomCustomerID draws a customer per the spec distribution.
func randomCustomerID(rng *rand.Rand, sc Scale) int {
	if sc.Customers >= 3000 {
		return nuRand(rng, 1023, 259, 1, sc.Customers)
	}
	return rng.Intn(sc.Customers) + 1
}

// randomItemID draws an item per the spec distribution.
func randomItemID(rng *rand.Rand, sc Scale) int {
	if sc.Items >= 100000 {
		return nuRand(rng, 8191, 7911, 1, sc.Items)
	}
	return rng.Intn(sc.Items) + 1
}

// randomLastNameNum draws a last-name number for Payment/OrderStatus.
func randomLastNameNum(rng *rand.Rand, sc Scale) int {
	n := nuRand(rng, 255, nuRandCLast, 0, 999)
	if sc.Customers < 1000 {
		// Reduced scale: keep the name space aligned with loaded names.
		n %= sc.Customers
	}
	return n
}

func randString(rng *rand.Rand, minLen, maxLen int) string {
	const chars = "abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789"
	n := minLen
	if maxLen > minLen {
		n += rng.Intn(maxLen - minLen + 1)
	}
	b := make([]byte, n)
	for i := range b {
		b[i] = chars[rng.Intn(len(chars))]
	}
	return string(b)
}

// Load populates warehouses 1..cfg.Warehouses at the given scale using
// `threads` parallel loaders (one warehouse per task).
func Load(db engineapi.DB, warehouses int, sc Scale, threads int) error {
	secondaries := true
	for _, s := range Schemas(secondaries) {
		if err := db.CreateTable(s); err != nil {
			return fmt.Errorf("tpcc: create %s: %w", s.Name, err)
		}
	}
	// Items are shared across warehouses.
	if err := loadItems(db, sc); err != nil {
		return err
	}
	if threads <= 0 {
		threads = 4
	}
	wCh := make(chan int, warehouses)
	for w := 1; w <= warehouses; w++ {
		wCh <- w
	}
	close(wCh)
	var wg sync.WaitGroup
	errCh := make(chan error, threads)
	for i := 0; i < threads; i++ {
		wg.Add(1)
		go func(worker int) {
			defer wg.Done()
			for w := range wCh {
				if err := loadWarehouse(db, worker, w, sc); err != nil {
					errCh <- err
					return
				}
			}
		}(i)
	}
	wg.Wait()
	select {
	case err := <-errCh:
		return err
	default:
		return nil
	}
}

func loadItems(db engineapi.DB, sc Scale) error {
	rng := rand.New(rand.NewSource(42))
	const batch = 500
	worker := 0
	for i := 1; i <= sc.Items; {
		// Rotate workers so the item load spreads across log streams.
		tx, err := db.Begin(worker)
		worker = (worker + 1) % 4
		if err != nil {
			return err
		}
		for j := 0; j < batch && i <= sc.Items; j++ {
			err := tx.Insert(TItem, core.Row{
				core.I(int64(i)),
				core.I(int64(rng.Intn(10000) + 1)),
				core.S(randString(rng, 14, 24)),
				core.F(float64(rng.Intn(9900)+100) / 100),
				core.S(randString(rng, 26, 50)),
			})
			if err != nil {
				tx.Abort()
				return fmt.Errorf("tpcc: load item %d: %w", i, err)
			}
			i++
		}
		if err := tx.Commit(); err != nil {
			return err
		}
	}
	return nil
}

func loadWarehouse(db engineapi.DB, worker, w int, sc Scale) error {
	rng := rand.New(rand.NewSource(int64(w) * 7919))
	tx, err := db.Begin(worker)
	if err != nil {
		return err
	}
	if err := tx.Insert(TWarehouse, core.Row{
		core.I(int64(w)), core.S(randString(rng, 6, 10)),
		core.S(randString(rng, 10, 20)), core.S(randString(rng, 10, 20)),
		core.S("ST"), core.S("123456789"),
		core.F(float64(rng.Intn(2000)) / 10000), core.F(300000),
	}); err != nil {
		tx.Abort()
		return err
	}
	if err := tx.Commit(); err != nil {
		return err
	}
	// Stock for every item.
	const batch = 500
	for i := 1; i <= sc.Items; {
		tx, err := db.Begin(worker)
		if err != nil {
			return err
		}
		for j := 0; j < batch && i <= sc.Items; j++ {
			if err := tx.Insert(TStock, core.Row{
				core.I(int64(w)), core.I(int64(i)),
				core.I(int64(rng.Intn(91) + 10)),
				core.S(randString(rng, 24, 24)),
				core.I(0), core.I(0), core.I(0),
				core.S(randString(rng, 26, 50)),
			}); err != nil {
				tx.Abort()
				return fmt.Errorf("tpcc: load stock w=%d i=%d: %w", w, i, err)
			}
			i++
		}
		if err := tx.Commit(); err != nil {
			return err
		}
	}
	// Districts, customers, history, orders.
	hSeq := int64(w) << 32
	for d := 1; d <= sc.Districts; d++ {
		tx, err := db.Begin(worker)
		if err != nil {
			return err
		}
		if err := tx.Insert(TDistrict, core.Row{
			core.I(int64(w)), core.I(int64(d)),
			core.S(randString(rng, 6, 10)), core.S(randString(rng, 10, 20)),
			core.F(float64(rng.Intn(2000)) / 10000), core.F(30000),
			core.I(int64(sc.InitOrders + 1)),
		}); err != nil {
			tx.Abort()
			return err
		}
		if err := tx.Commit(); err != nil {
			return err
		}
		// Customers.
		for c := 1; c <= sc.Customers; {
			tx, err := db.Begin(worker)
			if err != nil {
				return err
			}
			for j := 0; j < batch && c <= sc.Customers; j++ {
				lastNum := c - 1
				if lastNum > 999 {
					lastNum = nuRand(rng, 255, nuRandCLast, 0, 999)
				}
				credit := "GC"
				if rng.Intn(10) == 0 {
					credit = "BC"
				}
				if err := tx.Insert(TCustomer, core.Row{
					core.I(int64(w)), core.I(int64(d)), core.I(int64(c)),
					core.S(randString(rng, 8, 16)), core.S("OE"), core.S(LastName(lastNum)),
					core.S(credit), core.F(float64(rng.Intn(5000)) / 10000),
					core.F(-10), core.F(10), core.I(1), core.I(0),
					core.S(randString(rng, 50, 100)),
				}); err != nil {
					tx.Abort()
					return fmt.Errorf("tpcc: load customer w=%d d=%d c=%d: %w", w, d, c, err)
				}
				hSeq++
				if err := tx.Insert(THistory, core.Row{
					core.I(hSeq), core.I(int64(w)), core.I(int64(d)), core.I(int64(c)),
					core.F(10), core.S(randString(rng, 12, 24)),
				}); err != nil {
					tx.Abort()
					return err
				}
				c++
			}
			if err := tx.Commit(); err != nil {
				return err
			}
		}
		// Initial orders: the most recent 30% stay undelivered (rows in
		// new_order), per the spec.
		for o := 1; o <= sc.InitOrders; o++ {
			tx, err := db.Begin(worker)
			if err != nil {
				return err
			}
			olCnt := rng.Intn(11) + 5
			cid := rng.Intn(sc.Customers) + 1
			carrier := int64(rng.Intn(10) + 1)
			undelivered := o > sc.InitOrders*7/10
			if undelivered {
				carrier = 0
			}
			if err := tx.Insert(TOrder, core.Row{
				core.I(int64(w)), core.I(int64(d)), core.I(int64(o)),
				core.I(int64(cid)), core.I(int64(o)), core.I(carrier),
				core.I(int64(olCnt)), core.I(1),
			}); err != nil {
				tx.Abort()
				return err
			}
			if undelivered {
				if err := tx.Insert(TNewOrder, core.Row{
					core.I(int64(w)), core.I(int64(d)), core.I(int64(o)),
				}); err != nil {
					tx.Abort()
					return err
				}
			}
			for ol := 1; ol <= olCnt; ol++ {
				amount := float64(0)
				deliveryD := int64(o)
				if undelivered {
					amount = float64(rng.Intn(999999)) / 100
					deliveryD = 0
				}
				if err := tx.Insert(TOrderLine, core.Row{
					core.I(int64(w)), core.I(int64(d)), core.I(int64(o)), core.I(int64(ol)),
					core.I(int64(rng.Intn(sc.Items) + 1)), core.I(int64(w)),
					core.I(deliveryD), core.I(5), core.F(amount),
					core.S(randString(rng, 24, 24)),
				}); err != nil {
					tx.Abort()
					return err
				}
			}
			if err := tx.Commit(); err != nil {
				return err
			}
		}
	}
	return nil
}
