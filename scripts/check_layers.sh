#!/usr/bin/env bash
# Keeps the algorithms below the solver registry. The solver interface
# (src/solver/*.hpp) and every layer above it (api, service, net, shard,
# persist, evolve) reach the partitioning algorithms only through the
# registry's entries (src/solver/registry.cpp). So none of their files may
# include a header from core/, multilevel/, spectral/, refine/ or linalg/,
# nor one from metaheuristics/ other than anytime.hpp (the anytime recorder
# and RunHooks every solver request carries).
#
# Usage: scripts/check_layers.sh [repo root]
# Prints each offending include and exits 1; prints "layers: ok" otherwise.
set -euo pipefail
cd "${1:-$(dirname "$0")/..}"
hits=$(grep -nE '^#include "(core|multilevel|spectral|refine|linalg|metaheuristics)/' \
         src/solver/*.hpp \
         src/api/* src/service/* src/net/* src/shard/* src/persist/* \
         src/evolve/* |
       grep -v '"metaheuristics/anytime.hpp"' || true)
if [ -n "$hits" ]; then
  echo "layers: algorithm headers included above the solver registry:"
  echo "$hits"
  exit 1
fi
echo "layers: ok"
