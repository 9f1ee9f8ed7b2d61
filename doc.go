// Package bprom is the repository root of a pure-Go reproduction of
// "Prompting the Unseen: Detecting Hidden Backdoors in Black-Box Models"
// (IEEE/IFIP DSN 2025). The implementation lives under internal/: the
// detector (internal/bprom, internal/vp, internal/cmaes), and the serving
// plane it is deployed on (internal/mlaas over internal/audit and
// internal/jobstore), whose HTTP layer reaches audit jobs through a single
// backend seam — in-process on a node, the Gateway on a gateway.
// cmd/tables regenerates every table and figure of the paper's evaluation
// section; performance is measured by the separate bench/ module
// (bench/README.md). See README.md for the tour and docs/API.md for the
// wire protocol.
package bprom
