package store

import (
	"encoding/csv"
	"fmt"
	"io"
	"strconv"
	"time"
)

// WriteSpikesCSV writes the spike-event log as CSV with a header row.
func (s *Store) WriteSpikesCSV(w io.Writer) error {
	cw := csv.NewWriter(w)
	if err := cw.Write([]string{"at", "market", "price", "ratio", "probed"}); err != nil {
		return fmt.Errorf("store: write csv header: %w", err)
	}
	for _, e := range s.Spikes() {
		row := []string{
			e.At.Format(time.RFC3339),
			e.Market.String(),
			formatFloat(e.Price),
			formatFloat(e.Ratio),
			strconv.FormatBool(e.Probed),
		}
		if err := cw.Write(row); err != nil {
			return fmt.Errorf("store: write csv row: %w", err)
		}
	}
	cw.Flush()
	return cw.Error()
}

// WriteOutagesCSV writes the detected outage intervals as CSV.
func (s *Store) WriteOutagesCSV(w io.Writer) error {
	cw := csv.NewWriter(w)
	if err := cw.Write([]string{"market", "kind", "start", "end"}); err != nil {
		return fmt.Errorf("store: write csv header: %w", err)
	}
	for _, o := range s.Outages() {
		end := ""
		if !o.End.IsZero() {
			end = o.End.Format(time.RFC3339)
		}
		row := []string{o.Market.String(), o.Kind.String(), o.Start.Format(time.RFC3339), end}
		if err := cw.Write(row); err != nil {
			return fmt.Errorf("store: write csv row: %w", err)
		}
	}
	cw.Flush()
	return cw.Error()
}

// WriteProbesCSV writes the probe log as CSV with a header row.
func (s *Store) WriteProbesCSV(w io.Writer) error {
	cw := csv.NewWriter(w)
	header := []string{
		"at", "market", "kind", "trigger", "trigger_market",
		"spike_ratio", "price_ratio", "rejected", "code", "bid", "cost",
	}
	if err := cw.Write(header); err != nil {
		return fmt.Errorf("store: write csv header: %w", err)
	}
	for _, r := range s.Probes() {
		row := []string{
			r.At.Format(time.RFC3339),
			r.Market.String(),
			r.Kind.String(),
			r.Trigger.String(),
			r.TriggerMarket.String(),
			formatFloat(r.SpikeRatio),
			formatFloat(r.PriceRatio),
			strconv.FormatBool(r.Rejected),
			r.Code,
			formatFloat(r.Bid),
			formatFloat(r.Cost),
		}
		if err := cw.Write(row); err != nil {
			return fmt.Errorf("store: write csv row: %w", err)
		}
	}
	cw.Flush()
	return cw.Error()
}

// WritePricesCSV writes every recorded price sample as CSV.
func (s *Store) WritePricesCSV(w io.Writer) error {
	cw := csv.NewWriter(w)
	if err := cw.Write([]string{"market", "at", "price"}); err != nil {
		return fmt.Errorf("store: write csv header: %w", err)
	}
	for _, id := range s.PricedMarkets() {
		for _, p := range s.Prices(id) {
			row := []string{id.String(), p.At.Format(time.RFC3339), formatFloat(p.Price)}
			if err := cw.Write(row); err != nil {
				return fmt.Errorf("store: write csv row: %w", err)
			}
		}
	}
	cw.Flush()
	return cw.Error()
}

func formatFloat(f float64) string {
	return strconv.FormatFloat(f, 'g', -1, 64)
}
