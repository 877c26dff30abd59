package main

import (
	"encoding/json"
	"os"
	"time"

	"spasm"
	"spasm/internal/service"
	"spasm/internal/service/store"
	"spasm/internal/stats"
)

// storeRecord builds the record spasmd persists for a run: its RunDoc,
// its wire spec, and its statistics with the host wall time zeroed.
func storeRecord(spec spasm.Spec, doc []byte, r *stats.Run) (store.Record, error) {
	specJSON, err := json.Marshal(service.RequestFromSpec(spec))
	if err != nil {
		return store.Record{}, err
	}
	st := *r
	st.Wall = 0
	statsJSON, err := json.Marshal(&st)
	if err != nil {
		return store.Record{}, err
	}
	return store.Record{ID: spec.Hash(), Spec: specJSON, Doc: doc, Stats: statsJSON}, nil
}

// storeTimes are per-call latencies of the durable store.
type storeTimes struct {
	putMS, getMS []float64
}

// timeStore writes every record to a fresh store under scratch and
// reads each back, timing the calls one by one.
func timeStore(scratch string, records []store.Record) (storeTimes, error) {
	var t storeTimes
	dir, err := os.MkdirTemp(scratch, "layer-store-")
	if err != nil {
		return t, err
	}
	defer os.RemoveAll(dir)
	st, err := store.Open(dir)
	if err != nil {
		return t, err
	}
	for _, rec := range records {
		t0 := time.Now()
		err := st.Put(rec)
		t.putMS = append(t.putMS, ms(time.Since(t0)))
		if err != nil {
			return t, err
		}
	}
	for _, rec := range records {
		t0 := time.Now()
		_, ok := st.Get(rec.ID)
		t.getMS = append(t.getMS, ms(time.Since(t0)))
		if !ok {
			return t, os.ErrNotExist
		}
	}
	return t, nil
}
