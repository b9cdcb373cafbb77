package server

import (
	"encoding/json"
	"fmt"
	"net/http"
	"sync"
	"testing"

	"schemaflow/internal/httpapi"
	"schemaflow/internal/shard"
	"schemaflow/payg"
)

// domainOf returns the id of the domain schema name belongs to, or -1.
func domainOf(sys *payg.System, name string) int {
	for _, d := range sys.Domains() {
		for _, m := range d.Schemas {
			if m.Name == name {
				return d.ID
			}
		}
	}
	return -1
}

// TestRepliesNeverMixGenerations hammers the read endpoints while feedback
// flips the model between two and three domains. Every reply must describe
// one model: a partial's scores cover exactly total_domains domains (the
// invariant the router's newest-generation gather relies on), a client
// never sees the generation go backwards, and every single-node score is
// decorated by the model that ranked it.
func TestRepliesNeverMixGenerations(t *testing.T) {
	s := quietServer(t, false, nil)
	mgr := s.Manager()

	stop := make(chan struct{})
	var swapper sync.WaitGroup
	swapper.Add(1)
	go func() {
		defer swapper.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			// air1 into its own domain, then back together with air2.
			res, err := mgr.ApplyFeedback(payg.Feedback{Splits: []int{0}})
			if err != nil {
				t.Errorf("split: %v", err)
				return
			}
			merge := [2]int{res.NewDomainOf[0], domainOf(res.System, "air2")}
			if _, err := mgr.ApplyFeedback(payg.Feedback{Merges: [][2]int{merge}}); err != nil {
				t.Errorf("merge: %v", err)
				return
			}
		}
	}()

	const clients, rounds = 4, 600
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			lastGen := -1
			checkPartial := func(what string, gen, total int, lists ...[]shard.PartialScore) error {
				if gen < lastGen {
					return fmt.Errorf("%s: generation went back from %d to %d", what, lastGen, gen)
				}
				lastGen = gen
				for _, scores := range lists {
					if len(scores) != total {
						return fmt.Errorf("%s: generation %d reports %d domains but ranks %d", what, gen, total, len(scores))
					}
				}
				return nil
			}
			for i := 0; i < rounds; i++ {
				if err := func() error {
					_, body := get(t, s, "/shard/classify?q=departure+title&top=9")
					var p shard.ClassifyPartial
					if err := json.Unmarshal([]byte(body), &p); err != nil {
						return fmt.Errorf("shard classify: %v in %s", err, body)
					}
					if err := checkPartial("/shard/classify", p.Generation, p.TotalDomains, p.Scores); err != nil {
						return err
					}
					_, body = postJSON(t, s, "/shard/classify/batch", `{"queries":["departure","title year"],"top":9}`)
					var b shard.BatchPartial
					if err := json.Unmarshal([]byte(body), &b); err != nil {
						return fmt.Errorf("shard batch: %v in %s", err, body)
					}
					if err := checkPartial("/shard/classify/batch", b.Generation, b.TotalDomains, b.Results...); err != nil {
						return err
					}
					// Every domain of this corpus is mediated, so a score without
					// its schema was decorated by a model that lacks the domain.
					code, body := get(t, s, "/classify?q=departure+title&top=9")
					var scores []httpapi.Score
					if err := json.Unmarshal([]byte(body), &scores); err != nil || code != http.StatusOK {
						return fmt.Errorf("classify: %d %v in %s", code, err, body)
					}
					for _, sc := range scores {
						if len(sc.Mediated) == 0 {
							return fmt.Errorf("/classify: domain %d ranked without its mediated schema: %s", sc.Domain, body)
						}
					}
					return nil
				}(); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	wg.Wait()
	close(stop)
	swapper.Wait()
}
