# Lint: the library reads no environment (DESIGN §4, decision 6).
#
# Fails when `getenv` appears in any file under src/mesh other than the
# two program-edge readers: common/log.cpp (MESH_LOG) and
# harness/experiment.cpp (BenchOptions::fromEnvironment and
# applyEnvironmentOverrides). Run as a ctest (`ctest -L lint`) or by hand:
#
#   cmake -DMESH_SOURCE_DIR=src/mesh -P tests/lint_getenv.cmake

cmake_minimum_required(VERSION 3.16)

if(NOT MESH_SOURCE_DIR)
  message(FATAL_ERROR "pass -DMESH_SOURCE_DIR=<repo>/src/mesh")
endif()
get_filename_component(MESH_SOURCE_DIR "${MESH_SOURCE_DIR}" ABSOLUTE)

set(allowed common/log.cpp harness/experiment.cpp)

file(GLOB_RECURSE files RELATIVE "${MESH_SOURCE_DIR}" "${MESH_SOURCE_DIR}/*")
if(NOT files)
  message(FATAL_ERROR "no files under ${MESH_SOURCE_DIR}")
endif()
set(offenders "")
foreach(file IN LISTS files)
  if(file IN_LIST allowed)
    continue()
  endif()
  file(STRINGS "${MESH_SOURCE_DIR}/${file}" hits REGEX "getenv")
  if(hits)
    list(APPEND offenders "${file}")
  endif()
endforeach()

if(offenders)
  list(JOIN offenders "\n  " listing)
  message(FATAL_ERROR
    "getenv outside the program edge (allowed: ${allowed}):\n  ${listing}")
endif()
list(LENGTH files count)
message(STATUS "lint_getenv: ${count} files under src/mesh, no stray getenv")
