# Runs cesmtool once per malformed numeric option value or unknown option
# and requires exit status 2 (a usage error) every time: a typo must never
# run with a number other than the one meant, or without the option meant. The controls pass well-formed values with an
# input file that does not exist, so they must get past option parsing and
# fail on the file instead (status 1).
#
#   cmake -DCESMTOOL=path/to/cesmtool -P cesmtool_bad_flags.cmake

# One case per line, arguments separated by '|'.
set(compress "compress|missing.cnc|out.cnc|--codec=APAX-5")
set(bad_cases
  "${compress}|--min-rho=abc"
  "${compress}|--min-rho="
  "${compress}|--min-rho=0.9x"
  "${compress}|--min-rho= 0.5"
  "${compress}|--min-rho=-0.1"
  "${compress}|--min-rho=1.5"
  "${compress}|--min-rho=nan"
  "${compress}|--min-rho=inf"
  "generate|out.cnc|--member=1x"
  "generate|out.cnc|--member=4294967296"
  "generate|out.cnc|--vars=-1"
  "suite|--vars=1x"
  "suite|--members=abc"
  "suite|--chunk=64k"
  "suite|--chunk=99999999999999999999"
  "suite|--jobs=-1"
  "suite|--jobs="
  "suite|--spill-budget-mb=1e3"
  "suite|--variant-jobs=two"
  "suite|--help"
  "suite|--no-such-flag"
)
set(control_cases
  "${compress}|--min-rho=0.5"
  "${compress}|--min-rho=1"
)

function(run_case case expected)
  string(REPLACE "|" ";" args "${case}")
  execute_process(COMMAND ${CESMTOOL} ${args} RESULT_VARIABLE rc OUTPUT_QUIET ERROR_QUIET)
  if(NOT rc EQUAL expected)
    set(failures ${failures} "expected ${expected}, got ${rc}: ${case}" PARENT_SCOPE)
  endif()
endfunction()

set(failures "")
foreach(case IN LISTS bad_cases)
  run_case("${case}" 2)
endforeach()
foreach(case IN LISTS control_cases)
  run_case("${case}" 1)
endforeach()
if(failures)
  string(REPLACE ";" "\n  " report "${failures}")
  message(FATAL_ERROR "cesmtool option parsing:\n  ${report}")
endif()
