package main

import "fmt"

// workload is one traffic mix against one server configuration.  The names
// are cited by later issues and do not change; BENCHMARK.json and README.md
// say at more length why each was chosen.
type workload struct {
	Name string
	// Kinds are the dataset kinds served; Scale their generator scale.
	Kinds []string
	Scale int
	// Shards > 1 serves every dataset as a sharded corpus.
	Shards int
	// Caches turns the server's result and completion caches on.
	Caches bool
	// Ingest adds the fixed-schedule writer beside one reader (the server
	// runs with the admin API and a corpus directory).
	Ingest bool
}

var allKinds = []string{"dblp", "xmark", "treebank"}

var workloads = []workload{
	{
		// The 40-twig working set fits the caches, so time goes to middleware, decode/encode, cache lookup and the socket.
		Name:  "session.warm",
		Kinds: allKinds, Scale: 20, Shards: 1, Caches: true,
	},
	{
		// Same stream with both caches off, so every request runs parse, plan, join, rank, render or a fresh completion.
		Name:  "session.cold",
		Kinds: allKinds, Scale: 20, Shards: 1,
	},
	{
		// session.cold over 4 shards per dataset, so the difference between the two isolates corpus fan-out and merge.
		Name:  "session.shards4",
		Kinds: allKinds, Scale: 20, Shards: 4,
	},
	{
		// One reader beside a fixed-schedule writer whose publishes re-key the caches and trigger compaction.
		Name:  "ingest.mixed",
		Kinds: []string{"xmark"}, Scale: 50, Shards: 4, Caches: true, Ingest: true,
	},
}

func workloadByName(name string) (workload, error) {
	for _, w := range workloads {
		if w.Name == name {
			return w, nil
		}
	}
	return workload{}, fmt.Errorf("unknown workload %q", name)
}

// datasetSeed is lotusx-server's default -seed: the served documents are the
// same on every run, the benchmark's seed varies only the requests.
const datasetSeed = 42

// datasets maps each served kind to the dataset name requests select it by:
// "-dataset all" registers kinds under their own name, a single "-dataset
// xmark" under the document name.
func (w workload) datasets() map[string]string {
	out := map[string]string{}
	for _, k := range w.Kinds {
		out[k] = k
		if len(w.Kinds) == 1 {
			out[k] = fmt.Sprintf("%s-s%d", k, w.Scale)
		}
	}
	return out
}

// serverArgs are the lotusx-server flags of the workload; corpusDir is used
// by ingest workloads only.
func (w workload) serverArgs(addr, corpusDir string) []string {
	args := []string{"-addr", addr, "-quiet", "-scale", fmt.Sprint(w.Scale)}
	if len(w.Kinds) == 1 {
		args = append(args, "-dataset", w.Kinds[0])
	} else {
		args = append(args, "-dataset", "all")
	}
	if w.Shards > 1 {
		args = append(args, "-shards", fmt.Sprint(w.Shards))
	}
	if !w.Caches {
		args = append(args, "-cache-results=false", "-cache-completions=false")
	}
	if w.Ingest {
		args = append(args, "-admin", "-corpus-dir", corpusDir)
	}
	return args
}
