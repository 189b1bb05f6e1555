/**
 * @file
 * Minimal ASCII PLY import/export.
 *
 * Lets users dump synthetic frames for inspection in standard
 * point-cloud viewers (CloudCompare, MeshLab) and load small
 * external clouds into the pipeline. Supports the vertex elements
 * this library produces: x/y/z floats plus an optional integer
 * label property.
 */

#ifndef HGPCN_DATASETS_PLY_IO_H
#define HGPCN_DATASETS_PLY_IO_H

#include <string>

#include "datasets/frame.h"

namespace hgpcn
{
namespace ply
{

/**
 * Write @p frame as ASCII PLY. Labels are emitted as an int
 * "label" property when present.
 * @return true on success.
 */
bool write(const std::string &path, const Frame &frame);

/**
 * Read an ASCII PLY containing at least float x/y/z vertex
 * properties; an int/uchar "label" property is loaded when present.
 * The vertex element must be the header's first element. Calls
 * fatal() on a malformed header, and with the row number on a
 * vertex row with fewer values than properties, a non-numeric value
 * or a label outside int range.
 * @return the loaded frame (name = file path).
 */
Frame read(const std::string &path);

} // namespace ply
} // namespace hgpcn

#endif // HGPCN_DATASETS_PLY_IO_H
