# Writes the bench provenance header: `cmake -DSOURCE_DIR=<checkout>
# -DOUTPUT=<header> [-DOVERRIDE=<text>] -P GitDescribe.cmake`. The text is
# OVERRIDE when given, else `git describe --always --dirty` of SOURCE_DIR,
# else "unknown". The header is rewritten only when the text changed, so a
# build after a commit recompiles the benches that print it and a no-op
# build recompiles nothing. bench.cmake runs this at every build.

if(DEFINED OVERRIDE AND NOT OVERRIDE STREQUAL "")
  set(Describe "${OVERRIDE}")
else()
  execute_process(COMMAND git describe --always --dirty
                  WORKING_DIRECTORY "${SOURCE_DIR}"
                  OUTPUT_VARIABLE Describe
                  OUTPUT_STRIP_TRAILING_WHITESPACE
                  ERROR_QUIET)
  if(NOT Describe)
    set(Describe "unknown")
  endif()
endif()

set(Text "#define CHAMELEON_GIT_DESCRIBE \"${Describe}\"\n")
set(Old "")
if(EXISTS "${OUTPUT}")
  file(READ "${OUTPUT}" Old)
endif()
if(NOT Old STREQUAL Text)
  file(WRITE "${OUTPUT}" "${Text}")
endif()
