# Serving smoke test: drive the full checkpoint-and-serve loop through
# ptucker_cli — train a tiny model, save a snapshot, warm-start from it,
# answer predict and topk queries, validate every serve flag at the
# parser boundary, reject flags the subcommand or method does not read,
# check that --help lists each flag once, run a bounded `serve` over
# TCP, and check that unknown subcommands fail loudly (not by silently
# defaulting to decompose). The wire-level behavior of the server itself is covered by
# tests/serve/net/.
#
# Invoked by ctest as:
#   cmake -DPTUCKER_CLI=<path> -DWORK_DIR=<dir> -P serve_smoke.cmake

if(NOT PTUCKER_CLI)
  message(FATAL_ERROR "PTUCKER_CLI not set")
endif()
if(NOT WORK_DIR)
  message(FATAL_ERROR "WORK_DIR not set")
endif()

file(MAKE_DIRECTORY ${WORK_DIR})
set(model_path ${WORK_DIR}/serve_smoke_model.ptks)
set(queries_path ${WORK_DIR}/serve_smoke_queries.tns)
file(REMOVE ${model_path})

# run(<outvar> <expected_rc> args...): run the CLI, assert the exit code.
function(run outvar expected_rc)
  execute_process(
    COMMAND ${PTUCKER_CLI} ${ARGN}
    OUTPUT_VARIABLE out
    ERROR_VARIABLE err
    RESULT_VARIABLE rc
  )
  if(NOT rc EQUAL ${expected_rc})
    message(FATAL_ERROR
      "ptucker_cli ${ARGN} exited with ${rc} (want ${expected_rc})\n"
      "stdout:\n${out}\nstderr:\n${err}")
  endif()
  set(${outvar} "${out}\n${err}" PARENT_SCOPE)
endfunction()

# 1. Train on synthetic data and checkpoint the model.
run(train_out 0 --selftest --max-iters 4 --seed 42 --quiet
    --save-model ${model_path})
if(NOT train_out MATCHES "model snapshot written to")
  message(FATAL_ERROR "missing snapshot confirmation in:\n${train_out}")
endif()
if(NOT EXISTS ${model_path})
  message(FATAL_ERROR "snapshot file was not created: ${model_path}")
endif()

# 2. Warm-start a short resume from the checkpoint.
run(warm_out 0 --selftest --max-iters 2 --seed 42 --quiet
    --load-model ${model_path})
if(NOT warm_out MATCHES "warm start from")
  message(FATAL_ERROR "missing warm-start confirmation in:\n${warm_out}")
endif()

# 3. Batched predictions at three coordinates (selftest tensor is
# 50x40x30; .tns values are ignored by predict).
file(WRITE ${queries_path} "1 1 1 0\n25 20 15 0\n50 40 30 0\n")
run(predict_out 0 predict --load-model ${model_path}
    --queries ${queries_path})
if(NOT predict_out MATCHES "3 predictions")
  message(FATAL_ERROR "missing predictions header in:\n${predict_out}")
endif()
if(NOT predict_out MATCHES "25 20 15 [-0-9.]+")
  message(FATAL_ERROR "missing/unparseable prediction line in:\n${predict_out}")
endif()

# 4. Top-K recommendation along mode 2.
run(topk_out 0 topk --load-model ${model_path} --mode 2 --index 3,1,5 --k 3)
if(NOT topk_out MATCHES "top-3 along mode 2")
  message(FATAL_ERROR "missing topk header in:\n${topk_out}")
endif()
if(NOT topk_out MATCHES "  3\\. index [0-9]+  predicted [-0-9.]+")
  message(FATAL_ERROR "missing third topk result in:\n${topk_out}")
endif()

# 5. Exact-scan nprobe spelling and the v2 conversion round trip.
run(topk_all_out 0 topk --load-model ${model_path} --mode 2 --index 3,1,5
    --k 3 --topk-nprobe all)
if(NOT topk_all_out MATCHES "top-3 along mode 2")
  message(FATAL_ERROR "missing nprobe=all topk header in:\n${topk_all_out}")
endif()
set(converted_path ${WORK_DIR}/serve_smoke_model_v2.ptks)
run(convert_out 0 convert-model --load-model ${model_path}
    --save-model ${converted_path})
if(NOT convert_out MATCHES "model snapshot written to")
  message(FATAL_ERROR "missing convert confirmation in:\n${convert_out}")
endif()
run(converted_topk_out 0 topk --load-model ${converted_path} --mode 2
    --index 3,1,5 --k 3)
if(NOT converted_topk_out MATCHES "top-3 along mode 2")
  message(FATAL_ERROR "converted snapshot unservable:\n${converted_topk_out}")
endif()

# 5b. Format v1 files (the pre-mmap layout) are no longer read: a
# hand-built v1 header must be refused by both the warm-start and the
# serving loaders, naming the file and the version.
set(v1_path ${WORK_DIR}/serve_smoke_model_v1.ptks)
execute_process(
  COMMAND sh -c "printf 'PTKS\\001\\000\\000\\000\\000\\000\\000\\000\\000\\000\\000\\000\\000\\000\\000\\000' > '${v1_path}'")
run(v1_warm_out 1 --selftest --max-iters 1 --quiet --load-model ${v1_path})
run(v1_predict_out 1 predict --load-model ${v1_path} --queries ${queries_path})
foreach(v1_out IN ITEMS "${v1_warm_out}" "${v1_predict_out}")
  if(NOT v1_out MATCHES "unsupported snapshot version 1"
     OR NOT v1_out MATCHES "serve_smoke_model_v1.ptks")
    message(FATAL_ERROR "v1 snapshot not refused by name:\n${v1_out}")
  endif()
endforeach()

# 6. Knob validation: removed engine knobs and engines, and bad flag
# values, die with exit code 2, not deep inside the library.
run(bad_tile_out 2 --selftest --tile-width 4)
if(NOT bad_tile_out MATCHES "unknown flag")
  message(FATAL_ERROR "removed --tile-width not refused in:\n${bad_tile_out}")
endif()
run(bad_engine_out 2 --selftest --delta-engine tiled)
if(NOT bad_engine_out MATCHES "unknown --delta-engine")
  message(FATAL_ERROR "removed tiled engine not refused in:\n${bad_engine_out}")
endif()
run(retired_auto_out 2 --selftest --delta-engine auto)
if(NOT retired_auto_out MATCHES "unknown --delta-engine: auto")
  message(FATAL_ERROR "retired auto engine not refused in:\n${retired_auto_out}")
endif()
# `--variant cache` spells `--delta-engine cache`; naming another engine
# beside it is a flag conflict that names both flags.
run(cache_conflict_out 2 --selftest --variant cache --delta-engine naive)
if(NOT cache_conflict_out MATCHES "--variant cache"
   OR NOT cache_conflict_out MATCHES "--delta-engine naive")
  message(FATAL_ERROR
    "--variant cache beside --delta-engine naive not refused in:\n"
    "${cache_conflict_out}")
endif()
run(bad_nprobe_out 2 topk --load-model ${model_path} --mode 2 --index 3,1,5
    --topk-nprobe maybe)
if(NOT bad_nprobe_out MATCHES "bad --topk-nprobe value")
  message(FATAL_ERROR "missing nprobe validation in:\n${bad_nprobe_out}")
endif()
# Numeric flags read the whole token: a trailing suffix, a fraction for an
# integer, a sign the type cannot hold and a non-number all exit 2 naming
# the flag and the token, before any solve runs.
foreach(case "--max-iters;2x" "--threads;1.5" "--seed;-1" "--lambda;abc")
  list(GET case 0 flag)
  list(GET case 1 token)
  run(bad_number_out 2 --selftest ${flag} ${token})
  if(NOT bad_number_out MATCHES "bad ${flag} value '${token}'")
    message(FATAL_ERROR
      "${flag} ${token} not refused by name in:\n${bad_number_out}")
  endif()
endforeach()

# 6b. A flag the subcommand does not take, or a solver flag the --method
# does not read, exits 2 naming the flag and the subcommand or method,
# before any file is read (the replay paths need not exist).
set(replay_args replay --input ${WORK_DIR}/absent.tns
    --load-model ${model_path} --events ${WORK_DIR}/absent.log)
foreach(case
    "--workers;decompose;decompose;--selftest;--workers;3"
    "--port;decompose;decompose;--selftest;--port;80"
    "--max-iters;replay;${replay_args};--max-iters;5"
    "--variant;replay;${replay_args};--variant;approx"
    "--update-core;hooi;--selftest;--method;hooi;--update-core")
  list(POP_FRONT case flag named)
  run(inapplicable_out 2 ${case})
  if(NOT inapplicable_out MATCHES "${flag}[^\n]*${named}")
    message(FATAL_ERROR
      "ptucker_cli ${case}: ${flag} not refused naming ${named} in:\n"
      "${inapplicable_out}")
  endif()
endforeach()

# 6c. --help lists every flag of the CLI's flag table exactly once.
file(STRINGS ${CMAKE_CURRENT_LIST_DIR}/../tools/ptucker_cli.cc table_rows
     REGEX "^    {\"--[a-z-]+\",")
run(help_out 0 --help)
foreach(row IN LISTS table_rows)
  string(REGEX MATCH "--[a-z-]+" flag "${row}")
  string(REGEX MATCHALL "[^a-z-]${flag}[^a-z-]" mentions "\n${help_out}")
  list(LENGTH mentions count)
  if(NOT count EQUAL 1)
    message(FATAL_ERROR "--help names ${flag} ${count} times:\n${help_out}")
  endif()
endforeach()
list(LENGTH table_rows flag_count)
if(flag_count LESS 40)
  message(FATAL_ERROR
    "the flag table of tools/ptucker_cli.cc was not found (${flag_count} rows)")
endif()

# 7. Serving-flag validation: every serve knob dies at the flag parser
# with exit code 2 and a message naming the flag — before any socket or
# model file is touched (no --load-model given on purpose).
run(bad_port_out 2 serve --port 65536)
if(NOT bad_port_out MATCHES "--port must be in \\[0, 65535\\]")
  message(FATAL_ERROR "missing port validation in:\n${bad_port_out}")
endif()
run(bad_listen_out 2 serve --listen-threads 0)
if(NOT bad_listen_out MATCHES "--listen-threads must be in \\[1, 64\\]")
  message(FATAL_ERROR "missing listen-threads validation in:\n${bad_listen_out}")
endif()
run(bad_workers_out 2 serve --worker-threads 65)
if(NOT bad_workers_out MATCHES "--worker-threads must be in \\[1, 64\\]")
  message(FATAL_ERROR "missing worker-threads validation in:\n${bad_workers_out}")
endif()
run(bad_batch_out 2 serve --max-batch 5000)
if(NOT bad_batch_out MATCHES "--max-batch must be in \\[1, 4096\\]")
  message(FATAL_ERROR "missing max-batch validation in:\n${bad_batch_out}")
endif()
run(bad_window_out 2 serve --batch-window-us -1)
if(NOT bad_window_out MATCHES "--batch-window-us must be in \\[0, 1000000\\]")
  message(FATAL_ERROR "missing batch-window validation in:\n${bad_window_out}")
endif()
run(bad_queue_out 2 serve --max-batch 64 --queue-capacity 10)
if(NOT bad_queue_out MATCHES "--queue-capacity must be >= --max-batch")
  message(FATAL_ERROR "missing queue-capacity validation in:\n${bad_queue_out}")
endif()
run(bad_seconds_out 2 serve --serve-seconds 90000)
if(NOT bad_seconds_out MATCHES "--serve-seconds must be in \\[0, 86400\\]")
  message(FATAL_ERROR "missing serve-seconds validation in:\n${bad_seconds_out}")
endif()
run(no_model_out 2 serve)
if(NOT no_model_out MATCHES "serve requires --load-model")
  message(FATAL_ERROR "missing serve load-model error in:\n${no_model_out}")
endif()

# 8. A bounded serve run actually binds, serves, and exits cleanly.
run(serve_out 0 serve --load-model ${model_path} --port 0 --serve-seconds 1)
if(NOT serve_out MATCHES "serving on port [0-9]+")
  message(FATAL_ERROR "missing serve startup banner in:\n${serve_out}")
endif()
if(NOT serve_out MATCHES "stopped after 1s")
  message(FATAL_ERROR "missing clean-shutdown line in:\n${serve_out}")
endif()

# 9. Unknown subcommands and flags must fail with a clear error.
run(bad_sub_out 2 serveur --load-model ${model_path})
if(NOT bad_sub_out MATCHES "unknown subcommand 'serveur'")
  message(FATAL_ERROR "missing unknown-subcommand error in:\n${bad_sub_out}")
endif()
run(bad_flag_out 2 predict --load-model ${model_path} --wat 1)
if(NOT bad_flag_out MATCHES "unknown flag: --wat")
  message(FATAL_ERROR "missing unknown-flag error in:\n${bad_flag_out}")
endif()
run(positional_out 2 predict ${model_path})
if(NOT positional_out MATCHES "unexpected positional argument")
  message(FATAL_ERROR "missing positional-argument error in:\n${positional_out}")
endif()

file(REMOVE ${model_path} ${queries_path} ${converted_path} ${v1_path})
message(STATUS "serve_smoke passed")
