package tpcc

import (
	"errors"
	"fmt"
	"math/rand"
	"sync/atomic"

	"hiengine/internal/core"
	"hiengine/internal/engineapi"
)

// errUserRollback is the intentional 1% NewOrder rollback (spec 2.4.1.4).
var errUserRollback = errors.New("tpcc: user-initiated rollback")

// session holds per-thread execution state.
type session struct {
	d      *Driver
	thread int
	rng    *rand.Rand
	homeW  int

	// inflight bounds pipelined commits awaiting durability (nil = sync).
	inflight chan struct{}
	asyncErr atomic.Pointer[error]
}

// access reports one record access in warehouse w to the NUMA hook.
func (s *session) access(w int) {
	if s.d.cfg.OnAccess != nil {
		s.d.cfg.OnAccess(s.thread, w)
	}
}

// pickCustomer resolves a customer by id (60%) or last name (40%),
// returning (c_id, row).
func (s *session) pickCustomer(tx engineapi.Txn, w, d int) (int64, core.Row, error) {
	s.access(w)
	if s.rng.Intn(100) < 60 {
		cid := int64(randomCustomerID(s.rng, s.d.cfg.Scale))
		row, err := tx.GetByKey(TCustomer, 0, core.I(int64(w)), core.I(int64(d)), core.I(cid))
		if err != nil {
			return 0, nil, err
		}
		return cid, row, nil
	}
	last := LastName(randomLastNameNum(s.rng, s.d.cfg.Scale))
	var matches []core.Row
	err := tx.ScanPrefix(TCustomer, 1, []core.Value{core.I(int64(w)), core.I(int64(d)), core.S(last)},
		func(row core.Row) bool {
			matches = append(matches, row)
			return true
		})
	if err != nil {
		return 0, nil, err
	}
	if len(matches) == 0 {
		// Fall back to an id lookup (reduced-scale name spaces can miss).
		cid := int64(randomCustomerID(s.rng, s.d.cfg.Scale))
		row, err := tx.GetByKey(TCustomer, 0, core.I(int64(w)), core.I(int64(d)), core.I(cid))
		if err != nil {
			return 0, nil, err
		}
		return cid, row, nil
	}
	row := matches[len(matches)/2] // spec: ceiling(n/2)-th by first name
	return row[2].Int(), row, nil
}

// newOrder is TPC-C 2.4.
func (s *session) newOrder(w int) error {
	tx, err := s.d.cfg.DB.Begin(s.thread)
	if err != nil {
		return err
	}
	d := s.rng.Intn(s.d.cfg.Scale.Districts) + 1
	cid := int64(randomCustomerID(s.rng, s.d.cfg.Scale))
	olCnt := s.rng.Intn(11) + 5
	rollback := s.rng.Intn(100) == 0

	s.access(w)
	wRow, err := tx.GetByKey(TWarehouse, 0, core.I(int64(w)))
	if err != nil {
		tx.Abort()
		return err
	}
	wTax := wRow[6].Float()

	s.access(w)
	dRow, err := tx.GetByKey(TDistrict, 0, core.I(int64(w)), core.I(int64(d)))
	if err != nil {
		tx.Abort()
		return err
	}
	dTax := dRow[4].Float()
	oID := dRow[6].Int()
	newD := append(core.Row{}, dRow...)
	newD[6] = core.I(oID + 1)
	if err := tx.UpdateByKey(TDistrict, 0, []core.Value{core.I(int64(w)), core.I(int64(d))}, newD); err != nil {
		return err
	}

	s.access(w)
	cRow, err := tx.GetByKey(TCustomer, 0, core.I(int64(w)), core.I(int64(d)), core.I(cid))
	if err != nil {
		tx.Abort()
		return err
	}
	discount := cRow[7].Float()

	allLocal := int64(1)
	type line struct {
		iID     int64
		supplyW int64
		qty     int64
	}
	lines := make([]line, olCnt)
	for i := range lines {
		iID := int64(randomItemID(s.rng, s.d.cfg.Scale))
		if rollback && i == olCnt-1 {
			iID = int64(s.d.cfg.Scale.Items) + 999999 // unused item: forces rollback
		}
		supplyW := int64(w)
		if s.d.cfg.Warehouses > 1 && s.rng.Intn(100) == 0 {
			for {
				sw := s.rng.Intn(s.d.cfg.Warehouses) + 1
				if sw != w {
					supplyW = int64(sw)
					break
				}
			}
			allLocal = 0
		}
		lines[i] = line{iID: iID, supplyW: supplyW, qty: int64(s.rng.Intn(10) + 1)}
	}

	if err := tx.Insert(TOrder, core.Row{
		core.I(int64(w)), core.I(int64(d)), core.I(oID), core.I(cid),
		core.I(s.d.entrySeq.Add(1)), core.I(0), core.I(int64(olCnt)), core.I(allLocal),
	}); err != nil {
		return err
	}
	if err := tx.Insert(TNewOrder, core.Row{core.I(int64(w)), core.I(int64(d)), core.I(oID)}); err != nil {
		return err
	}

	total := 0.0
	for i, ln := range lines {
		s.access(w)
		iRow, err := tx.GetByKey(TItem, 0, core.I(ln.iID))
		if err != nil {
			if errors.Is(err, engineapi.ErrNotFound) {
				tx.Abort()
				return errUserRollback
			}
			tx.Abort()
			return err
		}
		price := iRow[3].Float()

		s.access(int(ln.supplyW))
		sRow, err := tx.GetByKey(TStock, 0, core.I(ln.supplyW), core.I(ln.iID))
		if err != nil {
			tx.Abort()
			return err
		}
		qty := sRow[2].Int()
		if qty >= ln.qty+10 {
			qty -= ln.qty
		} else {
			qty = qty - ln.qty + 91
		}
		newS := append(core.Row{}, sRow...)
		newS[2] = core.I(qty)
		newS[4] = core.I(sRow[4].Int() + ln.qty)
		newS[5] = core.I(sRow[5].Int() + 1)
		if ln.supplyW != int64(w) {
			newS[6] = core.I(sRow[6].Int() + 1)
		}
		if err := tx.UpdateByKey(TStock, 0, []core.Value{core.I(ln.supplyW), core.I(ln.iID)}, newS); err != nil {
			return err
		}
		amount := float64(ln.qty) * price
		total += amount
		if err := tx.Insert(TOrderLine, core.Row{
			core.I(int64(w)), core.I(int64(d)), core.I(oID), core.I(int64(i + 1)),
			core.I(ln.iID), core.I(ln.supplyW), core.I(0), core.I(ln.qty),
			core.F(amount), core.S(sRow[3].Str()),
		}); err != nil {
			return err
		}
	}
	_ = total * (1 - discount) * (1 + wTax + dTax) // computed per spec; not stored
	return s.finish(tx)
}

// payment is TPC-C 2.5.
func (s *session) payment(w int) error {
	tx, err := s.d.cfg.DB.Begin(s.thread)
	if err != nil {
		return err
	}
	d := s.rng.Intn(s.d.cfg.Scale.Districts) + 1
	amount := float64(s.rng.Intn(500000)+100) / 100

	// 85% local customer, 15% from a remote warehouse.
	cw, cd := w, d
	if s.d.cfg.Warehouses > 1 && s.rng.Intn(100) >= 85 {
		for {
			rw := s.rng.Intn(s.d.cfg.Warehouses) + 1
			if rw != w {
				cw = rw
				break
			}
		}
		cd = s.rng.Intn(s.d.cfg.Scale.Districts) + 1
	}

	s.access(w)
	wRow, err := tx.GetByKey(TWarehouse, 0, core.I(int64(w)))
	if err != nil {
		tx.Abort()
		return err
	}
	newW := append(core.Row{}, wRow...)
	newW[7] = core.F(wRow[7].Float() + amount)
	if err := tx.UpdateByKey(TWarehouse, 0, []core.Value{core.I(int64(w))}, newW); err != nil {
		return err
	}

	s.access(w)
	dRow, err := tx.GetByKey(TDistrict, 0, core.I(int64(w)), core.I(int64(d)))
	if err != nil {
		tx.Abort()
		return err
	}
	newD := append(core.Row{}, dRow...)
	newD[5] = core.F(dRow[5].Float() + amount)
	if err := tx.UpdateByKey(TDistrict, 0, []core.Value{core.I(int64(w)), core.I(int64(d))}, newD); err != nil {
		return err
	}

	s.access(cw)
	cid, cRow, err := s.pickCustomer(tx, cw, cd)
	if err != nil {
		tx.Abort()
		return err
	}
	newC := append(core.Row{}, cRow...)
	newC[8] = core.F(cRow[8].Float() - amount)
	newC[9] = core.F(cRow[9].Float() + amount)
	newC[10] = core.I(cRow[10].Int() + 1)
	if cRow[6].Str() == "BC" {
		data := fmt.Sprintf("%d,%d,%d,%d,%.2f|%s", cid, cd, cw, d, amount, cRow[12].Str())
		if len(data) > 200 {
			data = data[:200]
		}
		newC[12] = core.S(data)
	}
	if err := tx.UpdateByKey(TCustomer, 0,
		[]core.Value{core.I(int64(cw)), core.I(int64(cd)), core.I(cid)}, newC); err != nil {
		return err
	}

	if err := tx.Insert(THistory, core.Row{
		core.I(s.d.historySeq.Add(1)), core.I(int64(cw)), core.I(int64(cd)), core.I(cid),
		core.F(amount), core.S(wRow[1].Str() + "    " + dRow[2].Str()),
	}); err != nil {
		return err
	}
	return s.finish(tx)
}

// orderStatus is TPC-C 2.6 (read-only).
func (s *session) orderStatus(w int) error {
	tx, err := s.d.cfg.DB.Begin(s.thread)
	if err != nil {
		return err
	}
	d := s.rng.Intn(s.d.cfg.Scale.Districts) + 1
	s.access(w)
	cid, _, err := s.pickCustomer(tx, w, d)
	if err != nil {
		tx.Abort()
		return err
	}
	// Most recent order for the customer through the by_cust index.
	var lastOrder core.Row
	err = tx.ScanPrefix(TOrder, 1, []core.Value{core.I(int64(w)), core.I(int64(d)), core.I(cid)},
		func(row core.Row) bool {
			lastOrder = row
			return true // keep going: entries are o_id-ascending
		})
	if err != nil {
		tx.Abort()
		return err
	}
	if lastOrder != nil {
		oID := lastOrder[2].Int()
		s.access(w)
		err = tx.ScanPrefix(TOrderLine, 0,
			[]core.Value{core.I(int64(w)), core.I(int64(d)), core.I(oID)},
			func(core.Row) bool { return true })
		if err != nil {
			tx.Abort()
			return err
		}
	}
	return s.finish(tx)
}

// delivery is TPC-C 2.7: one batch delivering the oldest undelivered order
// of every district.
func (s *session) delivery(w int) error {
	carrier := int64(s.rng.Intn(10) + 1)
	tx, err := s.d.cfg.DB.Begin(s.thread)
	if err != nil {
		return err
	}
	for d := 1; d <= s.d.cfg.Scale.Districts; d++ {
		s.access(w)
		// Oldest undelivered order: first new_order entry in pk order.
		var oID int64 = -1
		err := tx.ScanPrefix(TNewOrder, 0, []core.Value{core.I(int64(w)), core.I(int64(d))},
			func(row core.Row) bool {
				oID = row[2].Int()
				return false
			})
		if err != nil {
			tx.Abort()
			return err
		}
		if oID < 0 {
			continue // district fully delivered
		}
		if err := tx.DeleteByKey(TNewOrder, core.I(int64(w)), core.I(int64(d)), core.I(oID)); err != nil {
			if errors.Is(err, engineapi.ErrNotFound) {
				continue // another delivery raced us
			}
			return err
		}
		oRow, err := tx.GetByKey(TOrder, 0, core.I(int64(w)), core.I(int64(d)), core.I(oID))
		if err != nil {
			tx.Abort()
			return err
		}
		cid := oRow[3].Int()
		newO := append(core.Row{}, oRow...)
		newO[5] = core.I(carrier)
		if err := tx.UpdateByKey(TOrder, 0,
			[]core.Value{core.I(int64(w)), core.I(int64(d)), core.I(oID)}, newO); err != nil {
			return err
		}
		// Stamp order lines and sum amounts.
		var total float64
		var lineKeys []int64
		err = tx.ScanPrefix(TOrderLine, 0,
			[]core.Value{core.I(int64(w)), core.I(int64(d)), core.I(oID)},
			func(row core.Row) bool {
				total += row[8].Float()
				lineKeys = append(lineKeys, row[3].Int())
				return true
			})
		if err != nil {
			tx.Abort()
			return err
		}
		for _, ol := range lineKeys {
			olRow, err := tx.GetByKey(TOrderLine, 0,
				core.I(int64(w)), core.I(int64(d)), core.I(oID), core.I(ol))
			if err != nil {
				tx.Abort()
				return err
			}
			newOL := append(core.Row{}, olRow...)
			newOL[6] = core.I(s.d.entrySeq.Add(1))
			if err := tx.UpdateByKey(TOrderLine, 0,
				[]core.Value{core.I(int64(w)), core.I(int64(d)), core.I(oID), core.I(ol)}, newOL); err != nil {
				return err
			}
		}
		cRow, err := tx.GetByKey(TCustomer, 0, core.I(int64(w)), core.I(int64(d)), core.I(cid))
		if err != nil {
			tx.Abort()
			return err
		}
		newC := append(core.Row{}, cRow...)
		newC[8] = core.F(cRow[8].Float() + total)
		newC[11] = core.I(cRow[11].Int() + 1)
		if err := tx.UpdateByKey(TCustomer, 0,
			[]core.Value{core.I(int64(w)), core.I(int64(d)), core.I(cid)}, newC); err != nil {
			return err
		}
	}
	return s.finish(tx)
}

// stockLevel is TPC-C 2.8 (read-only).
func (s *session) stockLevel(w int) error {
	tx, err := s.d.cfg.DB.Begin(s.thread)
	if err != nil {
		return err
	}
	d := s.rng.Intn(s.d.cfg.Scale.Districts) + 1
	threshold := int64(s.rng.Intn(11) + 10)

	s.access(w)
	dRow, err := tx.GetByKey(TDistrict, 0, core.I(int64(w)), core.I(int64(d)))
	if err != nil {
		tx.Abort()
		return err
	}
	nextO := dRow[6].Int()
	lo := nextO - 20
	if lo < 1 {
		lo = 1
	}
	items := make(map[int64]bool)
	for o := lo; o < nextO; o++ {
		err := tx.ScanPrefix(TOrderLine, 0,
			[]core.Value{core.I(int64(w)), core.I(int64(d)), core.I(o)},
			func(row core.Row) bool {
				items[row[4].Int()] = true
				return true
			})
		if err != nil {
			tx.Abort()
			return err
		}
	}
	low := 0
	for iID := range items {
		s.access(w)
		sRow, err := tx.GetByKey(TStock, 0, core.I(int64(w)), core.I(iID))
		if err != nil {
			if errors.Is(err, engineapi.ErrNotFound) {
				continue
			}
			tx.Abort()
			return err
		}
		if sRow[2].Int() < threshold {
			low++
		}
	}
	_ = low
	return s.finish(tx)
}

// finish commits tx, pipelining the durability wait when the engine
// supports asynchronous commit and the driver enables it. With pipelining,
// the transaction's effects are already visible when finish returns; the
// durability acknowledgement is tracked by the session's in-flight window
// (the paper's commit pipelining: the worker is free once the log buffer is
// handed to the I/O thread).
func (s *session) finish(tx engineapi.Txn) error {
	if s.inflight != nil {
		if ac, ok := tx.(engineapi.AsyncCommitter); ok {
			s.inflight <- struct{}{}
			err := ac.CommitAsync(func(_ uint64, err error) {
				if err != nil {
					s.asyncErr.CompareAndSwap(nil, &err)
				}
				<-s.inflight
			})
			if err != nil {
				<-s.inflight
				return err
			}
			return nil
		}
	}
	return tx.Commit()
}

// drain waits out the in-flight commit window and reports any asynchronous
// durability error.
func (s *session) drain() error {
	if s.inflight == nil {
		return nil
	}
	for i := 0; i < cap(s.inflight); i++ {
		s.inflight <- struct{}{}
	}
	for i := 0; i < cap(s.inflight); i++ {
		<-s.inflight
	}
	if p := s.asyncErr.Load(); p != nil {
		return *p
	}
	return nil
}
