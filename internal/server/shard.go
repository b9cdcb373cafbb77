package server

import (
	"net/http"

	"schemaflow/internal/httpapi"
	"schemaflow/internal/shard"
	"schemaflow/payg"
)

// Shard backend endpoints: the raw-partial API a scatter-gather router
// consumes. They are mounted on every server — on an unsharded system
// every domain is local, so the partial is simply the whole answer —
// which keeps a 1-shard "topology" indistinguishable from a single node
// and lets the router tests pin bit-identity against the same binary.
//
//	GET  /shard/classify?q=...&top=k   local domains' raw log posteriors
//	POST /shard/classify/batch         {"queries": [...], "top": k} — batched partials
//	POST /shard/assign                 {"name": ..., "attributes": [...]} — read-only
//	                                   Algorithm-3 probe (no journal, no WAL, no ack)
//
// All three are read-only against the serving state, so they stay mounted
// in follower mode too.

// registerShardRoutes mounts the shard backend API on mux.
func (s *Server) registerShardRoutes(mux *http.ServeMux) {
	mux.HandleFunc("GET /shard/classify", route("/shard/classify", s.handleShardClassify))
	mux.HandleFunc("POST /shard/classify/batch", route("/shard/classify/batch", s.handleShardClassifyBatch))
	mux.HandleFunc("POST /shard/assign", route("/shard/assign", s.handleShardAssign))
}

func (s *Server) handleShardClassify(w http.ResponseWriter, r *http.Request) {
	q, top, err := httpapi.ParseClassify(r)
	if err != nil {
		httpapi.BadRequest(w, err)
		return
	}
	// A partial carries every local log posterior, so the shard ranks every
	// domain (k = NumDomains): the router's selection needs them all.
	v := s.mgr.View()
	sys := v.System()
	httpapi.WriteJSON(w, http.StatusOK, shard.ClassifyPartial{
		Generation:   v.Generation(),
		TotalDomains: sys.NumDomains(),
		Scores:       shard.PartialScores(v.Classify(q), sys, top),
	})
}

func (s *Server) handleShardClassifyBatch(w http.ResponseWriter, r *http.Request) {
	req, err := httpapi.DecodeBatch(w, r)
	if err != nil {
		httpapi.BadRequest(w, err)
		return
	}
	v := s.mgr.View()
	sys := v.System()
	rankings := v.ClassifyBatch(req.Queries, sys.NumDomains())
	out := shard.BatchPartial{
		Generation:   v.Generation(),
		TotalDomains: sys.NumDomains(),
		Results:      make([][]shard.PartialScore, len(rankings)),
	}
	for i, scores := range rankings {
		out.Results[i] = shard.PartialScores(scores, sys, req.Top)
	}
	httpapi.WriteJSON(w, http.StatusOK, out)
}

func (s *Server) handleShardAssign(w http.ResponseWriter, r *http.Request) {
	req, err := httpapi.DecodeSchema(w, r)
	if err != nil {
		httpapi.BadRequest(w, err)
		return
	}
	v := s.mgr.View()
	// Read-only probe: nothing is journaled or WAL-logged — the router
	// decides where (and whether) the arrival is actually ingested.
	a, err := v.System().IngestLocal(payg.Schema{Name: req.Name, Attributes: req.Attributes})
	if err != nil {
		httpapi.BadRequest(w, err)
		return
	}
	httpapi.WriteJSON(w, http.StatusOK, shard.AssignProbe{
		Generation: v.Generation(),
		BestDomain: a.BestDomain,
		BestSim:    a.BestSim,
		Fresh:      a.Fresh,
	})
}
