#!/bin/bash
# The benchmark's command in BENCHMARK.json: run from anywhere, it builds and
# runs this directory's module with the arguments it was given.
cd "$(dirname "$0")" && exec go run . "$@"
