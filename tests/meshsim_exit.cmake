# Runs meshsim on every scenario file in CONFIG_DIR and requires a clean
# refusal from each: exit status 1 and a diagnostic on stderr. A signal
# (an abort reads "Child aborted", not 1) or a run that succeeds fails.
# tests/CMakeLists.txt registers it as the `meshsim_exit` ctest (label
# `robustness`); by hand:
#
#   cmake -DMESHSIM=build/tools/meshsim -DCONFIG_DIR=tests/hostile \
#         -P tests/meshsim_exit.cmake

cmake_minimum_required(VERSION 3.16)

if(NOT MESHSIM OR NOT CONFIG_DIR)
  message(FATAL_ERROR "pass -DMESHSIM=<meshsim binary> -DCONFIG_DIR=<dir of .ini files>")
endif()

file(GLOB configs "${CONFIG_DIR}/*.ini")
if(NOT configs)
  message(FATAL_ERROR "no .ini files under ${CONFIG_DIR}")
endif()
set(failures "")
foreach(config IN LISTS configs)
  get_filename_component(name "${config}" NAME)
  execute_process(COMMAND "${MESHSIM}" "${config}"
                  RESULT_VARIABLE status OUTPUT_QUIET ERROR_VARIABLE diagnostic)
  string(STRIP "${diagnostic}" diagnostic)
  if(NOT status STREQUAL "1" OR diagnostic STREQUAL "")
    list(APPEND failures "${name}: exit '${status}', stderr '${diagnostic}'")
  else()
    message(STATUS "${name}: exit 1: ${diagnostic}")
  endif()
endforeach()

if(failures)
  list(JOIN failures "\n  " listing)
  message(FATAL_ERROR "meshsim did not refuse cleanly:\n  ${listing}")
endif()
