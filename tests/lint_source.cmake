# Lint: a pattern that may appear under src/mesh only in allow-listed files.
#
# Fails when a line matching LINT_REGEX appears in any file under
# MESH_SOURCE_DIR other than those in LINT_ALLOW (comma-separated paths
# relative to MESH_SOURCE_DIR). tests/CMakeLists.txt registers one ctest
# per rule under the `lint` label (`ctest -L lint`); by hand:
#
#   cmake -DMESH_SOURCE_DIR=src/mesh -DLINT_NAME=lint_getenv \
#         -DLINT_REGEX=getenv \
#         -DLINT_ALLOW=common/log.cpp,harness/experiment.cpp \
#         -P tests/lint_source.cmake

cmake_minimum_required(VERSION 3.16)

if(NOT MESH_SOURCE_DIR OR NOT LINT_NAME OR NOT LINT_REGEX)
  message(FATAL_ERROR
    "pass -DMESH_SOURCE_DIR=<repo>/src/mesh -DLINT_NAME=<name> "
    "-DLINT_REGEX=<regex> [-DLINT_ALLOW=<file>,<file>]")
endif()
get_filename_component(MESH_SOURCE_DIR "${MESH_SOURCE_DIR}" ABSOLUTE)

string(REPLACE "," ";" allowed "${LINT_ALLOW}")

file(GLOB_RECURSE files RELATIVE "${MESH_SOURCE_DIR}" "${MESH_SOURCE_DIR}/*")
if(NOT files)
  message(FATAL_ERROR "no files under ${MESH_SOURCE_DIR}")
endif()
set(offenders "")
foreach(file IN LISTS files)
  if(file IN_LIST allowed)
    continue()
  endif()
  file(STRINGS "${MESH_SOURCE_DIR}/${file}" hits REGEX "${LINT_REGEX}")
  if(hits)
    list(APPEND offenders "${file}")
  endif()
endforeach()

if(offenders)
  list(JOIN offenders "\n  " listing)
  message(FATAL_ERROR
    "${LINT_NAME}: '${LINT_REGEX}' outside ${allowed}:\n  ${listing}")
endif()
list(LENGTH files count)
message(STATUS "${LINT_NAME}: ${count} files under src/mesh, no '${LINT_REGEX}' outside ${allowed}")
