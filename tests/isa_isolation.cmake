# ISA isolation: no AVX2 code outside the AVX2 clones.
# The contraction tree walk, the R(β) scorer's lane pass and the batched
# naive reconstruct are each compiled twice, once generic and once inside
# a `*_avx2` namespace under `#pragma GCC target("avx2")`, and picked at
# run time (util/cpu.h). Any other function compiled under the pragma --
# a header's inline function, say, whose copy the linker may keep for the
# whole program -- would crash with SIGILL on a CPU without AVX2. This
# script disassembles the library and fails, naming the symbol, when a
# VEX or EVEX instruction (mnemonic v...) appears in a function outside an
# `*_avx2` namespace. With EXPECT_CLONES it also fails when no `*_avx2`
# function uses one, which would mean the pragma had no effect.
#
# Invoked by ctest as:
#   cmake -DLIBRARY=<libptucker.a> -DOBJDUMP=<objdump or empty>
#         -DWORK_DIR=<dir> -DEXPECT_CLONES=ON|OFF -P isa_isolation.cmake
# Prints "isa_isolation: skipped" (ctest's skip pattern) without objdump.

if(NOT LIBRARY)
  message(FATAL_ERROR "LIBRARY not set")
endif()
if(NOT OBJDUMP OR NOT EXISTS "${OBJDUMP}")
  message("isa_isolation: skipped: objdump not found")
  return()
endif()

file(MAKE_DIRECTORY ${WORK_DIR})
set(listing ${WORK_DIR}/libptucker.dis)
execute_process(
  COMMAND ${OBJDUMP} -d --no-show-raw-insn ${LIBRARY}
  OUTPUT_FILE ${listing}
  ERROR_VARIABLE err
  RESULT_VARIABLE rc
)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "${OBJDUMP} -d ${LIBRARY} exited with ${rc}:\n${err}")
endif()

# Keep only the function headers ("<addr> <symbol>:") and the VEX/EVEX
# instruction lines. Symbols stay mangled: a mangled name holds no list
# separators or brackets, and a function (or a lambda or OpenMP body
# inside one) of namespace `ptucker::foo_avx2` starts "_ZN7ptucker8foo_avx2"
# ("_ZZN..." for the local ones), followed by the length of the next name.
file(STRINGS ${listing} lines
     REGEX "^[0-9a-f]+ <[^>]+>:$|^ +[0-9a-f]+:\tv")
file(REMOVE ${listing})

set(symbol "")
set(reported "")
set(offenders "")
set(clones 0)
foreach(line IN LISTS lines)
  if(line MATCHES "^[0-9a-f]+ <([^>]+)>:$")
    set(symbol ${CMAKE_MATCH_1})
    set(reported OFF)
  elseif(NOT reported)
    set(reported ON)
    if(symbol MATCHES "^_ZZ?N7ptucker[0-9]+[A-Za-z0-9_]*_avx2[0-9]")
      math(EXPR clones "${clones} + 1")
    else()
      string(STRIP "${line}" instruction)
      list(APPEND offenders "${symbol} (${instruction})")
    endif()
  endif()
endforeach()

if(offenders)
  list(JOIN offenders "\n  " text)
  message(FATAL_ERROR
    "isa_isolation: VEX/EVEX instructions outside an *_avx2 namespace "
    "(would fault on a CPU without AVX2; demangle with c++filt):\n  ${text}")
endif()
if(EXPECT_CLONES AND clones EQUAL 0)
  message(FATAL_ERROR
    "isa_isolation: no function of an *_avx2 namespace uses VEX: the "
    "`#pragma GCC target(\"avx2\")` clones were not compiled")
endif()
message("isa_isolation: ${clones} *_avx2 functions use VEX, no other function does")
