package main

import (
	"fmt"
	"io"
	"sort"
	"time"
)

// spanIndex is the parent/child structure of a traced phase.
type spanIndex struct {
	byID map[uint64]span
	kids map[uint64][]span
	all  []span
}

// indexSpans builds the tree. A bprom.tail span is opened after the calls
// it spans have already run, so those calls were recorded as its siblings:
// every sibling lying wholly inside a tail's interval is adopted by it.
func indexSpans(spans []span) *spanIndex {
	all := append([]span(nil), spans...)
	tails := make(map[uint64][]span) // parent id → tails under it
	for _, s := range all {
		if s.Name == spanTail {
			tails[s.Parent] = append(tails[s.Parent], s)
		}
	}
	for i, s := range all {
		if s.Name == spanTail {
			continue
		}
		for _, t := range tails[s.Parent] {
			if s.Start >= t.Start && s.End <= t.End {
				all[i].Parent = t.ID
				break
			}
		}
	}
	ix := &spanIndex{byID: make(map[uint64]span, len(all)), kids: make(map[uint64][]span), all: all}
	for _, s := range all {
		ix.byID[s.ID] = s
		if s.Parent != 0 {
			ix.kids[s.Parent] = append(ix.kids[s.Parent], s)
		}
	}
	return ix
}

// named returns the spans called name.
func (ix *spanIndex) named(name string) []span {
	var out []span
	for _, s := range ix.all {
		if s.Name == name {
			out = append(out, s)
		}
	}
	return out
}

// ancestor returns s's nearest ancestor called name.
func (ix *spanIndex) ancestor(s span, name string) (span, bool) {
	for s.Parent != 0 {
		p, ok := ix.byID[s.Parent]
		if !ok {
			return span{}, false
		}
		if p.Name == name {
			return p, true
		}
		s = p
	}
	return span{}, false
}

// budget attributes every operation's wall time to span names, so that the
// parts sum to the whole: a span is charged the part of its interval no
// child covers (its self time), and children that overlap one another —
// parallel chunk requests — share the wall they jointly cover in proportion
// to their lengths. It returns the total charged to each name over all
// operations, the number of operations, and their total wall time.
func (ix *spanIndex) budget() (parts map[string]time.Duration, ops int, total time.Duration) {
	acc := make(map[string]float64)
	for _, root := range ix.named(spanOp) {
		if root.Parent != 0 {
			continue
		}
		ops++
		total += root.dur()
		ix.attribute(acc, root, root.Start, root.End, 1)
	}
	parts = make(map[string]time.Duration, len(acc))
	for name, ns := range acc {
		parts[name] = time.Duration(ns)
	}
	return parts, ops, total
}

func (ix *spanIndex) attribute(acc map[string]float64, s span, lo, hi int64, weight float64) {
	lo, hi = max(lo, s.Start), min(hi, s.End)
	if hi <= lo {
		return
	}
	kids := ix.kids[s.ID]
	union := covered(lo, hi, kids)
	acc[s.Name] += weight * float64(time.Duration(hi-lo)-union)
	var sum int64
	for _, k := range kids {
		if a, b := max(k.Start, lo), min(k.End, hi); b > a {
			sum += b - a
		}
	}
	if sum == 0 {
		return
	}
	share := weight * float64(union) / float64(sum)
	for _, k := range kids {
		ix.attribute(acc, k, lo, hi, share)
	}
}

// budgetRow is one line of a budget table.
type budgetRow struct {
	Part  string  `json:"part"`
	PerOp float64 `json:"per_op"` // mean, in the table's unit
	Share float64 `json:"share"`  // of the mean operation time
}

type budgetTable struct {
	Unit string      `json:"unit"`
	Ops  int         `json:"ops"`
	OpMs float64     `json:"op_mean_ms"` // mean operation time as the load generator clocked it
	Rows []budgetRow `json:"rows"`
}

// partLabels renders span names as the budget's row labels, in path order.
// The operation's own self time is labelled by the caller: it is the load
// generator on a predict and the prompt search on an audit.
var partLabels = []struct{ span, label string }{
	{spanClient, "client encode + decode (mlaas.client self)"},
	{spanRoundTrip + ">" + spanGateway, "HTTP stack, client to gateway"},
	{spanGateway, "gateway self (decode, route, re-encode)"},
	{spanRoundTrip + ">" + spanHandler, "HTTP stack, to node"},
	{spanRoundTrip, "HTTP round trips without a traced server (polls)"},
	{spanHandler + ":wire", "server wire self (decode, queue, coalesce, encode)"},
	{spanHandler + ":forward", "forward pass (nn.Predict probe at the same rows)"},
	{spanHandler, "server handler"},
	{spanOracle + ":wire", "oracle self (quota wrapper, engine queue, contention)"},
	{spanOracle + ":forward", "forward pass (nn.Predict probe at the same rows)"},
	{spanOracle, "oracle (registry engines behind the quota wrapper)"},
	{spanCkptEnc, "checkpoint encode"},
	{spanCkptApp, "journal append + fsync (checkpoint)"},
	{spanLifecycle, "journal append + fsync (create, start, done)"},
	{spanTail, "tail self (accuracy, features, forest score)"},
}

// table renders the budget of a traced phase. Round trips are split by what
// they reached, and the share of the span that contains the forward pass —
// the node handler, or the in-process oracle — is split into the forward
// pass itself (forwardPerOp, from the probe) and the self time around it.
// opMean is the phase's mean operation time measured outside the tracer;
// what the parts leave of it is the residual.
func (ix *spanIndex) table(opMean, forwardPerOp, unit time.Duration, unitName, opLabel string) budgetTable {
	// Re-key round trips by the handler they caused, so the two hops of a
	// gateway request get a row each.
	spans := append([]span(nil), ix.all...)
	for i, s := range spans {
		if s.Name != spanRoundTrip {
			continue
		}
		for _, k := range ix.kids[s.ID] {
			if k.Name == spanGateway || k.Name == spanHandler {
				spans[i].Name = spanRoundTrip + ">" + k.Name
				break
			}
		}
	}
	parts, ops, _ := indexSpans(spans).budget()
	t := budgetTable{Unit: unitName, Ops: ops, OpMs: msec(opMean)}
	if ops == 0 {
		return t
	}
	perOp := make(map[string]float64)
	for name, d := range parts {
		perOp[name] = float64(d) / float64(ops) / float64(unit)
	}
	for _, name := range []string{spanHandler, spanOracle} {
		if h, ok := perOp[name]; ok && forwardPerOp > 0 {
			f := float64(forwardPerOp) / float64(unit)
			delete(perOp, name)
			perOp[name+":forward"] = f
			perOp[name+":wire"] = h - f
			break
		}
	}
	whole := float64(opMean) / float64(unit)
	sum := perOp[spanOp]
	t.Rows = append(t.Rows, budgetRow{Part: opLabel, PerOp: sum, Share: sum / whole})
	delete(perOp, spanOp)
	for _, pl := range partLabels {
		v, ok := perOp[pl.span]
		if !ok {
			continue
		}
		sum += v
		t.Rows = append(t.Rows, budgetRow{Part: pl.label, PerOp: v, Share: v / whole})
		delete(perOp, pl.span)
	}
	var rest []string
	for name := range perOp {
		rest = append(rest, name)
	}
	sort.Strings(rest)
	for _, name := range rest {
		sum += perOp[name]
		t.Rows = append(t.Rows, budgetRow{Part: name, PerOp: perOp[name], Share: perOp[name] / whole})
	}
	t.Rows = append(t.Rows, budgetRow{Part: "residual (unattributed)", PerOp: whole - sum, Share: (whole - sum) / whole})
	return t
}

func (t budgetTable) residualPct() float64 {
	if len(t.Rows) == 0 {
		return 0
	}
	return 100 * t.Rows[len(t.Rows)-1].Share
}

func (t budgetTable) print(w io.Writer, title string) {
	fmt.Fprintf(w, "\nbudget: %s — mean of %d traced operations, %.3f ms each\n", title, t.Ops, t.OpMs)
	for _, r := range t.Rows {
		fmt.Fprintf(w, "  %-58s %12.2f %s %6.1f%%\n", r.Part, r.PerOp, t.Unit, 100*r.Share)
	}
}

// wireMetrics fills the mlaas.* per-layer metrics from the spans of a
// traced phase. narrow and wide are the nn.Predict probe times at 8 and 432
// rows. It returns the forward-pass time to book per operation in the
// budget table.
func (ix *spanIndex) wireMetrics(m metrics, audits int, narrow, wide time.Duration) (forwardPerOp time.Duration) {
	self := selfTimes(ix.all)

	// Client side: one client.predict span per Client.Predict call, with the
	// round trips it fanned out below it.
	var clientSelf time.Duration
	var requests int
	var reqBytes, respBytes int64
	clients := ix.named(spanClient)
	for _, c := range clients {
		clientSelf += self[c.ID]
		for _, rt := range ix.kids[c.ID] {
			if rt.Name == spanRoundTrip {
				requests++
				reqBytes += rt.ReqBytes
				respBytes += rt.RespBytes
			}
		}
	}
	if requests > 0 {
		m.set("mlaas.client.self_us_per_req", usec(clientSelf)/float64(requests))
		m.set("mlaas.client.req_kb", float64(reqBytes)/1024/float64(requests))
		m.set("mlaas.client.resp_kb", float64(respBytes)/1024/float64(requests))
		if audits > 0 {
			m.set("mlaas.client.requests_per_audit", float64(requests)/float64(audits))
		}
	}

	// Node side: handlers that served a predict (those under a client span).
	var handlerDur, stack time.Duration
	var handlers int
	perCall := make(map[uint64][]span) // client span id → its node handlers
	for _, h := range ix.named(spanHandler) {
		c, ok := ix.ancestor(h, spanClient)
		if !ok {
			continue
		}
		handlers++
		handlerDur += h.dur()
		perCall[c.ID] = append(perCall[c.ID], h)
		if rt, ok := ix.byID[h.Parent]; ok && rt.Name == spanRoundTrip {
			stack += self[rt.ID]
		}
	}
	if handlers > 0 {
		m.set("mlaas.server.handler_us", usec(handlerDur)/float64(handlers))
		m.set("mlaas.server.http_stack_us", usec(stack)/float64(handlers))
	}
	// The handler's time around the forward pass: per Predict call at a
	// probed width, what its handlers jointly covered minus one forward pass
	// of the whole call (the engine coalesces a call's chunks), per request.
	var wire, forward time.Duration
	var wireReqs int
	for _, c := range clients {
		hs := perCall[c.ID]
		if len(hs) == 0 {
			continue
		}
		var probe time.Duration
		switch c.Rows {
		case predictRows:
			probe = narrow
		case wideRows:
			probe = wide
		default:
			continue
		}
		wire += covered(c.Start, c.End, hs) - probe
		forward += probe
		wireReqs += len(hs)
	}
	if wireReqs > 0 {
		m.set("mlaas.server.wire_self_us", usec(wire)/float64(wireReqs))
	}
	// A server-side audit's oracle calls reach the engines without a wire.
	for _, o := range ix.named(spanOracle) {
		if o.Rows == wideRows {
			forward += wide
		}
	}

	// Gateway: its handler's self time, and the node round trips under it.
	gws := ix.named(spanGateway)
	if len(gws) > 0 {
		var gwSelf, rtt, edge time.Duration
		var nodeReqs int
		byHost := make(map[string]int)
		for _, g := range gws {
			gwSelf += self[g.ID]
			for _, rt := range ix.kids[g.ID] {
				if rt.Name == spanRoundTrip {
					nodeReqs++
					rtt += rt.dur()
					byHost[rt.Host]++
				}
			}
			if rt, ok := ix.byID[g.Parent]; ok && rt.Name == spanRoundTrip {
				edge += self[rt.ID]
			}
		}
		m.set("mlaas.gateway.self_us_per_req", usec(gwSelf)/float64(len(gws)))
		m.set("mlaas.gateway.http_stack_us", usec(edge)/float64(len(gws)))
		if nodeReqs > 0 {
			m.set("mlaas.gateway.node_rtt_us", usec(rtt)/float64(nodeReqs))
			busiest := 0
			for _, n := range byHost {
				busiest = max(busiest, n)
			}
			m.set("mlaas.gateway.node_share_max", float64(busiest)/float64(nodeReqs))
		}
	}

	if ops := len(ix.named(spanOp)); ops > 0 {
		forwardPerOp = forward / time.Duration(ops)
	}
	return forwardPerOp
}
