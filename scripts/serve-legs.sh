#!/usr/bin/env bash
# The serverd/loadgen smoke legs over real loopback TCP.
#
# Usage: serve-legs.sh APPS_DIR loopback PORT
#        serve-legs.sh APPS_DIR two-node PORT_A PORT_B
#
# APPS_DIR holds bellamy_serverd and bellamy_loadgen (build/apps).  Every leg
# is self-terminating (loadgen --drain / --drain-only stops the servers) and
# `timeout` guards each step against a hang; the script exits non-zero when
# any step fails, and kills whatever server it left running.
#
#   loopback  bellamy_serverd on PORT, bellamy_loadgen publishing a model
#             and predicting on it over sockets.  loadgen exits non-zero on
#             any bit-identity mismatch.
#
#   two-node  The collaborative-exchange acceptance path.  Node A (PORT_A)
#             gets the models published; node B (PORT_B, peered at A via a
#             HOSTNAME, which exercises the getaddrinfo client path) must
#             serve the same jobs bit-identically WITHOUT any publish of its
#             own.  Then node B is kill -9'd mid-mesh (A's deadlines,
#             retries and breaker absorb the dead peer) and a RESTARTED B
#             must re-converge from an empty registry.  Which path each leg
#             exercises:
#               * first B leg   ANTI-ENTROPY: B syncs every 200 ms, so its
#                 models are installed before loadgen asks for them;
#               * restarted B   PULL-ON-MISS: B's sync period is longer than
#                 the job, so every model arrives through open_on_miss
#                 while loadgen's requests wait on it;
#               * last A leg    DRIFT: skewed report_run traffic triggers
#                 one reduced refit inside A's registry.

set -euo pipefail

if [[ $# -lt 3 ]]; then
  echo "usage: $0 APPS_DIR loopback PORT | APPS_DIR two-node PORT_A PORT_B" >&2
  exit 2
fi
apps="$1"
leg="$2"
serverd="$apps/bellamy_serverd"
loadgen="$apps/bellamy_loadgen"

# On any failure, leave no server behind.
trap 'kill $(jobs -p) 2>/dev/null || true' EXIT

case "$leg" in
  loopback)
    port="$3"
    "$serverd" --port="$port" --workers=2 < /dev/null &
    server_pid=$!
    sleep 1
    timeout 300 "$loadgen" --port="$port" \
      --requests=256 --clients=4 --probes=100 --drain
    # --drain makes the server exit; give it 30 s before declaring a hang.
    timeout 30 tail --pid="$server_pid" -f /dev/null
    ;;

  two-node)
    port_a="$3"
    port_b="${4:?two-node needs PORT_A and PORT_B}"
    io=(--io-timeout-ms=2000 --peer-retries=2)
    "$serverd" --port="$port_a" --workers=2 "${io[@]}" \
      --drift-threshold=0.5 --refit-budget=4 --refit-policy=coverage < /dev/null &
    node_a=$!
    sleep 1
    "$serverd" --port="$port_b" --workers=2 \
      --peer=localhost:"$port_a" --sync-ms=200 "${io[@]}" < /dev/null &
    node_b=$!
    sleep 1
    timeout 300 "$loadgen" --port="$port_a" \
      --requests=128 --clients=2 --probes=50
    timeout 300 "$loadgen" --host=localhost --port="$port_b" \
      --no-publish --requests=128 --clients=2 --probes=50
    # Crash node B outright; node A must keep serving while its peer is a
    # connection-refused hole in the mesh.
    kill -9 "$node_b"
    wait "$node_b" 2>/dev/null || true
    timeout 300 "$loadgen" --port="$port_a" \
      --no-publish --requests=64 --clients=2 --probes=25
    # Restart B on the same port: a fresh, empty node that must pull
    # everything back off A and serve it bit-identically again; with
    # anti-entropy parked for an hour, only pull-on-miss can do it.
    "$serverd" --port="$port_b" --workers=2 \
      --peer=localhost:"$port_a" --sync-ms=3600000 "${io[@]}" < /dev/null &
    node_b=$!
    sleep 1
    timeout 300 "$loadgen" --host=localhost --port="$port_b" \
      --no-publish --requests=128 --clients=2 --probes=50 --drain
    # Drift leg (after every bit-identity leg: the triggered refit rewrites
    # node A's model).  Stable reports must stay quiet, skewed runtimes must
    # land exactly one REDUCED refit (budget 4) on A.
    timeout 300 "$loadgen" --port="$port_a" --no-publish --drift-smoke
    timeout 60 "$loadgen" --port="$port_a" --drain-only
    timeout 30 tail --pid="$node_a" -f /dev/null
    timeout 30 tail --pid="$node_b" -f /dev/null
    ;;

  *)
    echo "$0: unknown leg '$leg' (loopback or two-node)" >&2
    exit 2
    ;;
esac
