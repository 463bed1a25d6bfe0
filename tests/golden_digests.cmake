# Golden model digests: "same bits as the committed table" as a test.
# Runs a fixed matrix of small ptucker_cli solves, hashes each
# --save-model snapshot with file(SHA256) and compares the digests with
# tests/golden/digests.txt. The matrix covers `decompose --selftest` for
# every variant and delta-engine (with and without --update-core), every
# baseline --method, `solve --workers 3`, `replay` of a gen-stream log and
# an order-5 input (tests/golden/order5.tns) whose contraction trees are 3
# and 4 levels deep.
#
# Rows that must produce the same model (thread counts, worker counts,
# solve vs decompose, the naive and mode-major engines, the auto engine
# and the one it resolves to) share a group, and each group has one line
# in the table: its digest, its name and its rows. A group whose rows
# disagree fails, as does any group whose digest differs from the table.
#
# A change that alters model bits on purpose regenerates the table
# (tools/regenerate_golden_digests.sh) and says which groups changed and
# why; a change that keeps the bits leaves it unedited.
#
# Invoked by ctest as:
#   cmake -DPTUCKER_CLI=<path> -DDIGESTS=<digests.txt> -DWORK_DIR=<dir>
#         -P golden_digests.cmake
# and with -DREGENERATE=ON to rewrite DIGESTS instead of checking it;
# -DTOOLCHAIN=<text> then names the compiler and libm in its header.

foreach(var PTUCKER_CLI DIGESTS WORK_DIR)
  if(NOT ${var})
    message(FATAL_ERROR "${var} not set")
  endif()
endforeach()

file(REMOVE_RECURSE ${WORK_DIR})
file(MAKE_DIRECTORY ${WORK_DIR})

set(groups "")

# Runs `ptucker_cli <args> --save-model <WORK_DIR>/<label>.ptks` and files
# the snapshot's digest under `group`.
function(golden_row group label)
  set(model ${WORK_DIR}/${label}.ptks)
  execute_process(
    COMMAND ${PTUCKER_CLI} ${ARGN} --save-model ${model}
    OUTPUT_VARIABLE out
    ERROR_VARIABLE err
    RESULT_VARIABLE rc
  )
  if(NOT rc EQUAL 0)
    message(FATAL_ERROR
      "${label}: ptucker_cli ${ARGN} exited with ${rc}\n"
      "stdout:\n${out}\nstderr:\n${err}")
  endif()
  file(SHA256 ${model} digest)
  set(digest_${label} ${digest} PARENT_SCOPE)
  if(NOT DEFINED rows_${group})
    set(groups ${groups} ${group} PARENT_SCOPE)
  endif()
  set(rows_${group} ${rows_${group}} ${label} PARENT_SCOPE)
endfunction()

set(fit --selftest --seed 42 --max-iters 3 --quiet)
# WOPT's selftest needs five iterations to pass the plausibility gate.
set(fit_baseline --selftest --seed 42 --max-iters 5 --quiet)
set(t1 --threads 1)
set(t3 --threads 3)

# P-Tucker, every variant and engine, with and without --update-core.
foreach(core IN ITEMS fixed refit)
  if(core STREQUAL "refit")
    set(flags ${fit} --update-core)
  else()
    set(flags ${fit})
  endif()
  # memory: auto resolves to contraction; one process or three workers.
  golden_row(${core}-contraction ${core}-memory-auto ${flags} ${t1})
  golden_row(${core}-contraction ${core}-memory-contraction
             ${flags} ${t1} --delta-engine contraction)
  golden_row(${core}-contraction ${core}-memory-auto-t3 ${flags} ${t3})
  golden_row(${core}-contraction ${core}-solve-w3
             solve ${flags} ${t1} --workers 3)
  # Mode-major is bit-identical to the naive oracle.
  golden_row(${core}-naive ${core}-memory-naive
             ${flags} ${t1} --delta-engine naive)
  golden_row(${core}-naive ${core}-memory-modemajor
             ${flags} ${t1} --delta-engine modemajor)
  golden_row(${core}-naive ${core}-memory-modemajor-t3
             ${flags} ${t3} --delta-engine modemajor)
  golden_row(${core}-naive ${core}-solve-naive-w3
             solve ${flags} ${t1} --delta-engine naive --workers 3)
  # cache: auto resolves to the Pres table.
  golden_row(${core}-cache ${core}-cache-auto ${flags} ${t1} --variant cache)
  golden_row(${core}-cache ${core}-cache-auto-t3
             ${flags} ${t3} --variant cache)
  golden_row(${core}-cache ${core}-memory-cache
             ${flags} ${t1} --delta-engine cache)
  # approx: R(beta) truncation after every iteration.
  golden_row(${core}-approx ${core}-approx-auto
             ${flags} ${t1} --variant approx)
  golden_row(${core}-approx ${core}-approx-auto-t3
             ${flags} ${t3} --variant approx)
  golden_row(${core}-approx-naive ${core}-approx-naive
             ${flags} ${t1} --variant approx --delta-engine naive)
  golden_row(${core}-approx-naive ${core}-approx-modemajor
             ${flags} ${t1} --variant approx --delta-engine modemajor)
  golden_row(${core}-approx-cache ${core}-approx-cache
             ${flags} ${t1} --variant approx --delta-engine cache)
endforeach()

# Ranks on both sides of the row kernel's unrolled widths, and the
# row-subsampling path.
set(wide ${fit} --ranks 9,3,7)
golden_row(wide-contraction wide-contraction ${wide} ${t1})
golden_row(wide-contraction wide-contraction-t3 ${wide} ${t3})
golden_row(wide-contraction wide-solve-w3 solve ${wide} ${t1} --workers 3)
golden_row(wide-naive wide-naive ${wide} ${t1} --delta-engine naive)
golden_row(wide-naive wide-modemajor ${wide} ${t1} --delta-engine modemajor)
golden_row(wide-cache wide-cache ${wide} ${t1} --variant cache)
set(sampled ${fit} --sample-rate 0.3)
golden_row(sampled-contraction sampled-contraction ${sampled} ${t1})
golden_row(sampled-contraction sampled-contraction-t3 ${sampled} ${t3})
golden_row(sampled-contraction sampled-solve-w3
           solve ${sampled} ${t1} --workers 3)
golden_row(sampled-naive sampled-naive ${sampled} ${t1} --delta-engine naive)
golden_row(sampled-cache sampled-cache ${sampled} ${t1} --variant cache)

# The baselines.
foreach(method IN ITEMS hooi shot csf wopt cp)
  golden_row(method-${method} method-${method}
             ${fit_baseline} ${t1} --method ${method})
  golden_row(method-${method} method-${method}-t3
             ${fit_baseline} ${t3} --method ${method})
endforeach()

# gen-stream -> decompose -> replay through the ingest pipeline.
set(stream_dir ${WORK_DIR}/stream)
file(MAKE_DIRECTORY ${stream_dir})
execute_process(
  COMMAND ${PTUCKER_CLI} gen-stream --output-tensor ${stream_dir}/initial.tns
          --events ${stream_dir}/stream.log --num-events 256
  OUTPUT_VARIABLE gen_out
  ERROR_VARIABLE gen_err
  RESULT_VARIABLE gen_rc
)
if(NOT gen_rc EQUAL 0)
  message(FATAL_ERROR "gen-stream exited with ${gen_rc}\n${gen_out}\n${gen_err}")
endif()
golden_row(stream-fit stream-fit --input ${stream_dir}/initial.tns
           --ranks 4,4,4,4 --max-iters 3 --quiet ${t1})
set(replay replay --input ${stream_dir}/initial.tns
    --load-model ${WORK_DIR}/stream-fit.ptks --events ${stream_dir}/stream.log)
golden_row(stream-replay stream-replay ${replay} ${t1})
golden_row(stream-replay stream-replay-t3 ${replay} ${t3})

# An order-5 input: at ranks 4^5 one mode's contraction tree is 3 levels
# deep and the other four are 4 deep.
get_filename_component(golden_dir ${DIGESTS} DIRECTORY)
set(order5 --input ${golden_dir}/order5.tns --ranks 4,4,4,4,4 --seed 42
    --max-iters 3 --quiet)
golden_row(order5-contraction order5-memory ${order5} ${t1})
golden_row(order5-contraction order5-memory-t3 ${order5} ${t3})
golden_row(order5-contraction order5-solve-w3
           solve ${order5} ${t1} --workers 3)
golden_row(order5-approx order5-approx ${order5} ${t1} --variant approx)
golden_row(order5-approx order5-approx-t3 ${order5} ${t3} --variant approx)
golden_row(order5-naive order5-naive ${order5} ${t1} --delta-engine naive)

# One line per group: every row of a group must have produced one model.
set(table "")
set(disagree "")
foreach(group IN LISTS groups)
  set(rows ${rows_${group}})
  list(GET rows 0 first)
  set(group_digest_${group} ${digest_${first}})
  foreach(label IN LISTS rows)
    if(NOT "${digest_${label}}" STREQUAL "${group_digest_${group}}")
      string(APPEND disagree
        "  group ${group}: ${first} ${digest_${first}}\n"
        "                  ${label} ${digest_${label}}\n")
    endif()
  endforeach()
  string(REPLACE ";" " " row_text "${rows}")
  string(APPEND table "${group_digest_${group}} ${group} ${row_text}\n")
endforeach()

if(REGENERATE)
  if(disagree)
    message(FATAL_ERROR
      "rows that must produce the same model disagree:\n${disagree}")
  endif()
  file(WRITE ${DIGESTS}
    "# SHA-256 of each --save-model snapshot of tests/golden_digests.cmake.\n"
    "# One line per group: digest, group, the rows that must produce it.\n"
    "# Regenerate with tools/regenerate_golden_digests.sh.\n"
    "# Toolchain: ${TOOLCHAIN}\n"
    "${table}")
  message(STATUS "wrote ${DIGESTS}")
  return()
endif()

# A group whose first row's digest, name and rows are not a line of the
# table changed; report every such group and every disagreement at once.
file(STRINGS ${DIGESTS} expected_lines REGEX "^[^#]")
string(REPLACE ";" "\n" expected_text "${expected_lines}")
set(changed "")
foreach(group IN LISTS groups)
  string(REPLACE ";" " " row_text "${rows_${group}}")
  list(FIND expected_lines "${group_digest_${group}} ${group} ${row_text}"
       found)
  if(found EQUAL -1)
    string(APPEND changed
      "  ${group} (${row_text}): ${group_digest_${group}}\n")
  endif()
endforeach()
if(disagree OR changed OR NOT "${expected_text}\n" STREQUAL "${table}")
  message(FATAL_ERROR
    "model digests differ from ${DIGESTS}.\n"
    "Rows that must produce the same model but disagree:\n${disagree}"
    "Groups whose digest or rows are not in the table:\n${changed}"
    "Expected:\n${expected_text}\nGot:\n${table}")
endif()
message(STATUS "golden_digests passed")
